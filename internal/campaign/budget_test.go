package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The memory budgets of the three places that keep a result per run: an
// in-memory store, a reopened disk store, and a finished campaign on the
// server. Each keeps one 80-byte outcome per run, and each test fails if a
// run costs more than that layout, so one 8-byte field more in the outcome
// fails all three.
//
// Map memory differs between Go versions (buckets before Go 1.24, groups
// since), so the two store budgets are not fixed byte counts: each store
// is measured against a plain map of the same shape — same key, same
// number of entries, values of the committed size — built in the same
// test. The fixed ceilings are what each store may cost on any version.

// liveBytes returns the heap bytes that stay reachable through the value
// build returns, and the last value built. The bytes are the median of
// five builds: a single reading can be off by kilobytes, low on a test
// binary's first and high when a build fills a cache of the runtime or a
// package. Each reading follows two collections, because objects dropped
// into a sync.Pool survive the first. build must not keep what it builds
// anywhere else: a value held across builds would be counted once and
// then freed inside the next reading.
func liveBytes(build func() any) (int64, any) {
	var reads [5]int64
	var v any
	for i := range reads {
		var before, after runtime.MemStats
		v = nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		v = build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		reads[i] = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	slices.Sort(reads[:])
	return reads[len(reads)/2], v
}

// budgetRuns is the number of results each store budget holds: what one
// round of the served-mixed benchmark puts (25 sessions of 24 cold runs).
const budgetRuns = 600

// budgetKey is the i-th distinct key of a budget store.
func budgetKey(i int) RunKey {
	var k RunKey
	binary.LittleEndian.PutUint64(k[:], uint64(i)+1)
	return k
}

// goldenRows decodes the committed example JSONL: realistic rows, each
// with its own label strings, as a store is handed them.
func goldenRows(t *testing.T) []RunResult {
	t.Helper()
	var rows []RunResult
	for _, line := range bytes.Split(bytes.TrimSpace(exampleGolden(t)), []byte("\n")) {
		var r RunResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// checkBudget logs a store's live bytes per result against its reference
// layout and fails past the reference plus slack, or past the ceiling.
func checkBudget(t *testing.T, what string, got, ref int64, slack, ceiling float64) {
	t.Helper()
	per, refPer := float64(got)/budgetRuns, float64(ref)/budgetRuns
	t.Logf("%s: %.0f live bytes per result; its layout as a plain map: %.0f", what, per, refPer)
	if per > refPer+slack || per > ceiling {
		t.Errorf("%s keeps %.0f live bytes per result, want at most %.0f (its layout, %.0f, plus %.0f) and at most %.0f",
			what, per, min(refPer+slack, ceiling), refPer, slack, ceiling)
	}
}

// TestMemoryStoreBytesPerResult: a MemoryStore keeps a 128-byte entry per
// result (key, outcome, recency links) and its map slot: 210 live bytes
// per result on Go 1.24, its layout exactly (466 when it kept whole rows).
// One 8-byte field more moves the entry to the 144-byte size class, 16
// bytes more per result.
func TestMemoryStoreBytesPerResult(t *testing.T) {
	rows := goldenRows(t)
	got, _ := liveBytes(func() any {
		m := NewMemoryStore(0)
		for i := 0; i < budgetRuns; i++ {
			m.Put(budgetKey(i), rows[i%len(rows)])
		}
		return m
	})
	ref, _ := liveBytes(func() any {
		m := make(map[RunKey]*[128]byte)
		for i := 0; i < budgetRuns; i++ {
			m[budgetKey(i)] = new([128]byte)
		}
		return m
	})
	checkBudget(t, "MemoryStore", got, ref, 8, 224)
}

// TestDiskStoreBytesPerRecord: a reopened DiskStore keeps a map slot of
// key and outcome (112 bytes) per record: 205 live bytes per record on Go
// 1.24, its layout exactly (474 when it kept whole rows). One 8-byte field
// more adds 8 bytes to each of the map's 1,024 slots, one 8-KiB page: 14
// bytes more per record.
func TestDiskStoreBytesPerRecord(t *testing.T) {
	rows := goldenRows(t)
	dir := t.TempDir()
	store := openStore(t, dir, StoreFile(0, 1))
	for i := 0; i < budgetRuns; i++ {
		store.Put(budgetKey(i), rows[i%len(rows)])
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// The stores of the earlier builds are garbage once measured; the
	// runtime closes their files when it collects them.
	got, reopened := liveBytes(func() any { return openStore(t, dir, StoreFile(0, 1)) })
	reopened.(*DiskStore).Close()
	ref, _ := liveBytes(func() any {
		m := make(map[RunKey][80]byte)
		for i := 0; i < budgetRuns; i++ {
			m[budgetKey(i)] = [80]byte{}
		}
		return m
	})
	checkBudget(t, "reopened DiskStore", got, ref, 6, 256)
}

// TestServedCampaignBytesPerRun: a finished campaign on the server keeps
// its spec's bytes and one outcome per run. Forty example campaigns
// submitted to a fresh server, every run a hit of a filled store, retain
// 111–113 bytes per run on Go 1.24 (478 when the server kept rows); the
// budget is 118. One 8-byte field more in the outcome moves a campaign's
// 24 outcomes from the 2,048-byte size class to the 2,304-byte one, 11
// bytes more per run. Campaigns are submitted one at a time through the
// handler, so no connection is counted.
func TestServedCampaignBytesPerRun(t *testing.T) {
	const campaigns, budget = 40, 118
	store := NewMemoryStore(0)
	if _, err := newEngine(t, Config{Workers: 4, Store: store}).Execute(mustExpand(t, Example())); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	// A goroutine started while the runtime has no spare goroutine
	// descriptor allocates one that is never freed. Leave a few hundred
	// spare, so the campaigns' goroutines are not counted.
	var wg sync.WaitGroup
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); time.Sleep(time.Millisecond) }()
	}
	wg.Wait()
	retained, v := liveBytes(func() any {
		srv, err := NewServer(Config{Workers: 4, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		for i := 0; i < campaigns; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
			}
			if err := srv.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return srv
	})
	per := float64(retained) / float64(campaigns*24)
	t.Logf("%.0f live bytes per run of a finished served campaign", per)
	if per > budget {
		t.Errorf("a finished served campaign retains %.0f bytes per run, want at most %d", per, budget)
	}

	rec := httptest.NewRecorder()
	v.(*Server).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/campaigns/c%d/results", campaigns), nil))
	if !bytes.Equal(rec.Body.Bytes(), exampleGolden(t)) {
		t.Error("the last campaign served rows other than the golden")
	}
	if st := store.Stats(); st.Misses != 24 {
		t.Errorf("store %+v: a measured campaign simulated", st)
	}
}
