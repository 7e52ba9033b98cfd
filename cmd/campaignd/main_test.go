package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cliflags"
)

// TestRunStartStop drives the daemon through a full lifecycle: start on an
// ephemeral port with a disk-backed cache, serve a request, then stop via
// the graceful-shutdown path and check the deferred cleanups ran (the
// disk cache file must exist and run must return nil — not os.Exit).
func TestRunStartStop(t *testing.T) {
	dir := t.TempDir()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir}, ready, stop)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d %q", resp.StatusCode, body)
	}

	// Submit a tiny campaign so shutdown exercises a daemon that did work.
	spec := strings.NewReader(`{
	  "name": "smoke",
	  "apps": [{"preset": "lu", "grid": {"nx": 8, "ny": 8, "nz": 8}}],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "ranks": [4]
	}`)
	resp, err = http.Post("http://"+addr+"/v1/campaigns", "application/json", spec)
	if err != nil {
		t.Fatalf("POST /v1/campaigns: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/campaigns = %d, want 202", resp.StatusCode)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful stop", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	if _, err := os.Stat(filepath.Join(dir, "cache.jsonl")); err != nil {
		t.Errorf("disk cache was not closed cleanly: %v", err)
	}

	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

// TestRunListenError: a listener failure must surface as an error return
// (running the deferred cleanups), not hang or os.Exit.
func TestRunListenError(t *testing.T) {
	err := run([]string{"-addr", "256.256.256.256:0"}, nil, nil)
	if err == nil {
		t.Fatal("run accepted an unlistenable address")
	}
}

// TestCacheSizeRefusedWithCacheDir: -cache-size bounds only the in-memory
// LRU, so next to -cache-dir it would be silently ignored; it is refused
// before anything listens.
func TestCacheSizeRefusedWithCacheDir(t *testing.T) {
	err := run([]string{"-addr", "127.0.0.1:0", "-cache-dir", t.TempDir(), "-cache-size", "10"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-cache-size") {
		t.Fatalf("run = %v, want -cache-size refused next to -cache-dir", err)
	}
}

// TestFlagInventory pins campaignd's flag surface and checks the shared
// flags carry the shared registry's help text — a drift back to an inline
// definition (the old -hist bug) fails here.
func TestFlagInventory(t *testing.T) {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	sort.Strings(got)
	want := []string{"addr", "cache-dir", "cache-size", "cpuprofile", "exectrace",
		"hist", "memprofile", "shards", "workers"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flag inventory drifted:\n got %v\nwant %v", got, want)
	}

	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cliflags.RegisterHist(shared)
	cliflags.RegisterWorkers(shared)
	cliflags.RegisterShards(shared, 0)
	obsFS := flag.NewFlagSet("obs", flag.ContinueOnError)
	cliflags.RegisterObs(obsFS)
	for _, name := range []string{"hist", "workers", "shards"} {
		if fs.Lookup(name).Usage != shared.Lookup(name).Usage {
			t.Errorf("-%s help text differs from the cliflags registry", name)
		}
	}
	if fs.Lookup("hist").Usage != obsFS.Lookup("hist").Usage {
		t.Error("-hist help text differs between RegisterHist and RegisterObs")
	}
}
