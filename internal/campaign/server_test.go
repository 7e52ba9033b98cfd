package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func startServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec Spec) submitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitDone polls the status endpoint until the campaign leaves "running".
func waitDone(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running after 30s (%d/%d)", id, st.Done, st.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerServesCampaign drives the full client workflow: submit, poll,
// fetch — and pins that the served JSONL is byte-identical to a direct
// engine run, and that a resubmission is served from the shared cache.
func TestServerServesCampaign(t *testing.T) {
	srv, ts := startServer(t)
	spec := Example()

	sub := postSpec(t, ts, spec)
	if sub.Schema != SchemaVersion || sub.ID == "" || sub.Runs != 24 {
		t.Fatalf("submit response %+v", sub)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != "done" || st.Done != st.Total || st.Error != "" {
		t.Fatalf("status %+v", st)
	}
	if st.Schema != SchemaVersion || st.Stats.Schema != SchemaVersion {
		t.Errorf("status schema versions %d/%d, want %d", st.Schema, st.Stats.Schema, SchemaVersion)
	}
	if st.Stats.Simulated != st.Total {
		t.Errorf("first submission simulated %d of %d", st.Stats.Simulated, st.Total)
	}

	resp, err := http.Get(ts.URL + sub.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	eng := newEngine(t, Config{Workers: 4})
	direct, err := eng.Execute(mustExpand(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalRows(t, direct); !bytes.Equal(served, want) {
		t.Error("served JSONL differs from direct engine run")
	}

	// Resubmission: every run comes from the shared cache.
	sub2 := postSpec(t, ts, spec)
	st2 := waitDone(t, ts, sub2.ID)
	if st2.Stats.CacheHits != st2.Total || st2.Stats.Simulated != 0 {
		t.Errorf("resubmission stats %+v, want all cache hits", st2.Stats)
	}
	resp2, err := http.Get(ts.URL + sub2.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	served2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served2, served) {
		t.Error("warm-cache campaign served different bytes")
	}
	if cs := srv.Store().Stats(); cs.Hits < uint64(st2.Total) {
		t.Errorf("cache stats %+v, want ≥ %d hits", cs, st2.Total)
	}
}

// TestServerSurvivesPanickingRun: a campaign whose runs panic fails, its
// status naming the first failed run, and its results are refused; the
// server stays up, and the next campaign completes with the golden rows.
func TestServerSurvivesPanickingRun(t *testing.T) {
	_, ts := startServer(t)
	sub := postSpec(t, ts, overflowSpec())
	st := waitDone(t, ts, sub.ID)
	if st.State != "failed" || st.Done != st.Total ||
		!strings.Contains(st.Error, " × x × P=4: panic: des: ") {
		t.Fatalf("status %+v, want failed with every run done and a panic named", st)
	}
	if resp, err := http.Get(ts.URL + sub.ResultsURL); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusConflict {
		t.Errorf("results of a failed campaign: status %d, want 409", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after a panicking run: status %d", resp.StatusCode)
	}

	next := postSpec(t, ts, Example())
	if st := waitDone(t, ts, next.ID); st.State != "done" {
		t.Fatalf("next campaign: %+v", st)
	}
	resp, err = http.Get(ts.URL + next.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, exampleGolden(t)) {
		t.Error("the campaign after a panicking one served rows other than the golden")
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := startServer(t)

	t.Run("bad spec is 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"name":"x","unknown_field":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Schema != SchemaVersion || eb.Error == "" {
			t.Errorf("error body %+v", eb)
		}
	})

	t.Run("unknown id is 404", func(t *testing.T) {
		for _, path := range []string{"/v1/campaigns/c999", "/v1/campaigns/c999/results"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
		}
	})

	t.Run("cache stats and health", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/cache/stats")
		if err != nil {
			t.Fatal(err)
		}
		var cs CacheStats
		err = json.NewDecoder(resp.Body).Decode(&cs)
		resp.Body.Close()
		if err != nil || cs.Schema != SchemaVersion {
			t.Errorf("cache stats decode err=%v schema=%d", err, cs.Schema)
		}
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if string(hb) != "ok\n" {
			t.Errorf("healthz = %q", hb)
		}
	})
}

// TestServerRejectsPerProcessConfig: the server owns the result hook and
// has no flight recording; a config carrying them is a construction-time
// error.
func TestServerRejectsPerProcessConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Obs: &obs.Recorder{}},
		{OnResult: func(RunResult) {}},
	} {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("NewServer accepted per-process config %+v", cfg)
		}
	}
}

func TestServerList(t *testing.T) {
	_, ts := startServer(t)
	sub := postSpec(t, ts, Example())
	waitDone(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list listResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != SchemaVersion || len(list.Campaigns) != 1 || list.Campaigns[0].ID != sub.ID {
		t.Errorf("list %+v", list)
	}
}
