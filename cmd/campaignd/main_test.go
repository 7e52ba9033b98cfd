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

// startDaemon runs the daemon with args on an ephemeral port and returns
// its address, the channel that stops it and the channel run's error
// arrives on.
func startDaemon(t *testing.T, args ...string) (addr string, stop chan struct{}, done chan error) {
	t.Helper()
	ready := make(chan string, 1)
	stop = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), ready, stop)
	}()
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	return addr, stop, done
}

// TestRunStartStop drives the daemon through a full lifecycle: start on an
// ephemeral port with a disk-backed cache, serve a request, then stop via
// the graceful-shutdown path and check the deferred cleanups ran (the
// submitted campaign's record must be in the closed disk cache and run
// must return nil — not os.Exit).
func TestRunStartStop(t *testing.T) {
	dir := t.TempDir()
	addr, stop, done := startDaemon(t, "-cache-dir", dir)

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

	cache, err := os.ReadFile(filepath.Join(dir, "cache.jsonl"))
	if err != nil {
		t.Errorf("disk cache was not closed cleanly: %v", err)
	}
	if n := strings.Count(string(cache), "\n"); n != 1 {
		t.Errorf("disk cache holds %d records, want the campaign's one run:\n%s", n, cache)
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

// TestRunStopFailsRunningCampaign: a campaign still running when the drain
// window ends fails the daemon's exit, named with its progress, rather
// than losing its remaining runs behind a closed store.
func TestRunStopFailsRunningCampaign(t *testing.T) {
	defer func(w time.Duration) { drainWindow = w }(drainWindow)
	drainWindow = 100 * time.Millisecond
	dir := t.TempDir()
	addr, stop, done := startDaemon(t, "-cache-dir", dir, "-workers", "1")

	// One 4,096-rank Sweep3D run: seconds of simulation, far beyond the
	// window.
	spec := strings.NewReader(`{
	  "name": "slow",
	  "apps": [{"preset": "sweep3d", "grid": {"nx": 64, "ny": 64, "nz": 64}}],
	  "machines": [{"preset": "xt4", "cores_per_node": 1}],
	  "ranks": [4096]
	}`)
	resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", spec)
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
		want := `campaign: 1 campaign(s) still running: c1 "slow" at 0/1 runs; resubmitting a campaign resumes from the store in ` + dir
		if err == nil || err.Error() != want {
			t.Fatalf("run = %v, want %q", err, want)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
