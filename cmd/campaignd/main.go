// Command campaignd serves campaign execution over HTTP/JSON. Clients
// POST a campaign spec and poll for status and results while the daemon
// executes runs on its worker pool; every campaign shares one
// content-addressed result cache, so overlapping sweeps submitted by
// different clients (or the same client twice) are served from cache,
// byte-identical to cold execution.
//
// Usage:
//
//	campaignd [-addr :8080] [-workers N] [-shards K] [-cache-size N | -cache-dir DIR]
//
// Endpoints:
//
//	POST /v1/campaigns           submit a spec (the JSON format of
//	                             `campaign -print-spec example`), 202 + id
//	GET  /v1/campaigns           list submitted campaigns
//	GET  /v1/campaigns/{id}      status: state, done/total, exec stats
//	GET  /v1/campaigns/{id}/results   results as JSONL, index order
//	GET  /v1/cache/stats         shared cache hit/miss counters
//	GET  /healthz                liveness probe
//
// Every JSON response and JSONL row carries a "schema_version" field; see
// the README's campaign-service section for the compatibility rule.
//
// With -cache-dir the cache is a disk store over that directory: it loads
// every cache*.jsonl file there — the files of `campaign -cache-dir` runs
// and range parts included — and appends to cache.jsonl, so a restarted
// daemon keeps its accumulated results. The disk store holds every record
// in memory, so -cache-size, which bounds the in-memory LRU used without
// -cache-dir, is refused next to it.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight responses
// and running campaigns share a drain window, then the disk cache and
// profiles are flushed and closed before exit. A campaign still running
// when the window ends fails the exit, named with its done/total count;
// with -cache-dir, resubmitting it resumes from the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/prof"
)

// daemonFlags is campaignd's flag surface; registration is separated from
// run so tests can pin the inventory against the shared cliflags registry.
type daemonFlags struct {
	addr      *string
	workers   *int
	shards    *int
	hist      *bool
	cacheSize *int
	cacheDir  *string
	prof      *prof.Flags
}

func registerFlags(fs *flag.FlagSet) daemonFlags {
	return daemonFlags{
		addr:      fs.String("addr", ":8080", "listen address"),
		workers:   cliflags.RegisterWorkers(fs),
		shards:    cliflags.RegisterShards(fs, 0),
		hist:      cliflags.RegisterHist(fs),
		cacheSize: fs.Int("cache-size", 0, "in-memory cache capacity in results, without -cache-dir (default 65536)"),
		cacheDir:  fs.String("cache-dir", "", "persist the cache in this store directory: load every cache*.jsonl file, append to cache.jsonl"),
		prof:      prof.Register(fs),
	}
}

// drainWindow bounds graceful shutdown: in-flight responses, then running
// campaigns.
var drainWindow = 10 * time.Second

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

// run is the daemon body: it returns (rather than os.Exit-ing) so the
// deferred cleanups — disk-cache close, profile flush, listener close —
// execute on every path, including serve errors and signal-triggered
// shutdown. ready, if non-nil, receives the bound address once the
// listener is up; closing stop requests the same graceful shutdown a
// SIGINT/SIGTERM would (both are for tests — main passes nil).
func run(args []string, ready chan<- string, stop <-chan struct{}) (err error) {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := f.prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	var store campaign.ResultStore = campaign.NewMemoryStore(*f.cacheSize)
	if *f.cacheDir != "" {
		if *f.cacheSize != 0 {
			return errors.New("-cache-size bounds the in-memory cache, and -cache-dir keeps every result in memory: give one or the other")
		}
		disk, derr := campaign.OpenDiskStore(*f.cacheDir, campaign.StoreFile(0, 1))
		if derr != nil {
			return derr
		}
		defer func() { err = errors.Join(err, disk.Close()) }()
		store = disk
	}

	srv, err := campaign.NewServer(campaign.Config{
		Workers: *f.workers,
		Shards:  *f.shards,
		Hist:    *f.hist,
		Store:   store,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		// Results of a large campaign stream as one response; give the
		// writer a generous but bounded window so a stalled client cannot
		// pin a connection forever.
		WriteTimeout: 10 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("campaignd: listening on %s (POST a spec to /v1/campaigns)\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve only returns before Shutdown on listener failure.
		return err
	case <-ctx.Done():
	case <-stop:
	}

	sctx, scancel := context.WithTimeout(context.Background(), drainWindow)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	<-serveErr // drain the ErrServerClosed that Shutdown makes Serve return
	// No submission can start now; the store must outlive every running
	// campaign's Puts.
	if err := srv.Wait(sctx); err != nil {
		if *f.cacheDir != "" {
			return fmt.Errorf("%w; resubmitting a campaign resumes from the store in %s", err, *f.cacheDir)
		}
		return err
	}
	return nil
}
