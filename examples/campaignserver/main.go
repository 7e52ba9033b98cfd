// Campaignserver: walk through the campaign serving layer end to end,
// in-process — no network needed (cmd/campaignd serves the same handler
// over a real socket). A server is started with a shared
// content-addressed result cache, a client submits the example sweep over
// HTTP twice, and the numbers show what the cache did: the first campaign
// simulates every run, the second simulates nothing, and both serve
// byte-identical JSONL — a cache hit is indistinguishable from a cold run
// in the output, because a run's content key covers everything that
// determines its bytes (and nothing that doesn't, like display labels).
//
// The same machinery backs multi-process sweeps on one machine or many:
// `campaign -range i/N -cache-dir DIR` executes a deterministic slice of
// the run list into a shared store directory (one file per part), a
// killed process rerun over DIR finds its finished runs as cache hits, and
// `campaign -merge -cache-dir DIR` writes output byte-identical to a
// single-process run without simulating.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/campaign"
)

func main() {
	// The server side: a validated base Config plus a shared store. Every
	// campaign submitted to this server draws on one cache, so clients
	// warm it for each other. cmd/campaignd wraps exactly this in
	// http.ListenAndServe; httptest keeps the example self-contained.
	srv, err := campaign.NewServer(campaign.Config{
		Workers: 4,
		Store:   campaign.NewMemoryStore(0),
	})
	check(err)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("campaignd-style server at %s\n\n", ts.URL)

	spec, _ := campaign.Builtin("example")
	body, err := json.Marshal(spec)
	check(err)

	var outputs [][]byte
	for round := 1; round <= 2; round++ {
		// POST the spec. The server expands it synchronously — a bad spec
		// is a 400 with the expansion error — and executes asynchronously.
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		check(err)
		var sub struct {
			Schema     int    `json:"schema_version"`
			ID         string `json:"id"`
			Runs       int    `json:"runs"`
			StatusURL  string `json:"status_url"`
			ResultsURL string `json:"results_url"`
		}
		check(json.NewDecoder(resp.Body).Decode(&sub))
		resp.Body.Close()
		fmt.Printf("round %d: submitted %q → id %s, %d runs (schema v%d)\n",
			round, spec.Name, sub.ID, sub.Runs, sub.Schema)

		// Poll the status endpoint until the state leaves "running".
		var st struct {
			State string             `json:"state"`
			Done  int                `json:"done"`
			Total int                `json:"total"`
			Stats campaign.ExecStats `json:"stats"`
		}
		for {
			resp, err := http.Get(ts.URL + sub.StatusURL)
			check(err)
			check(json.NewDecoder(resp.Body).Decode(&st))
			resp.Body.Close()
			if st.State != "running" {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("round %d: %s — %d/%d runs: %d simulated, %d served from cache\n",
			round, st.State, st.Done, st.Total, st.Stats.Simulated, st.Stats.CacheHits)

		// Fetch the results: JSONL in index order, byte-identical to what
		// `campaign -builtin example -out ...` writes.
		resp, err = http.Get(ts.URL + sub.ResultsURL)
		check(err)
		rows, err := io.ReadAll(resp.Body)
		check(err)
		resp.Body.Close()
		outputs = append(outputs, rows)
	}

	if bytes.Equal(outputs[0], outputs[1]) {
		fmt.Println("\ncold and warm-cache campaigns served byte-identical JSONL")
	} else {
		fmt.Println("\nERROR: outputs differ")
		os.Exit(1)
	}
	cs := srv.Store().Stats()
	fmt.Printf("shared cache: %d entries, %d hits, %d misses\n", cs.Entries, cs.Hits, cs.Misses)
	first, _, _ := bytes.Cut(outputs[0], []byte("\n"))
	fmt.Printf("first row: %.120s...\n", first)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignserver:", err)
		os.Exit(1)
	}
}
