package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
)

// timedStore wraps the campaign's ResultStore in the traced phase, timing
// every call and recording a span for it.
type timedStore struct {
	inner campaign.ResultStore
	tr    *tracer

	mu                 sync.Mutex
	hitNS, missNS, put []float64
}

func (s *timedStore) Get(k campaign.RunKey) (campaign.RunResult, bool) {
	t0 := time.Now()
	res, ok := s.inner.Get(k)
	d := float64(time.Since(t0).Nanoseconds())
	s.tr.since("store.get", 0, 0, t0)
	s.mu.Lock()
	if ok {
		s.hitNS = append(s.hitNS, d)
	} else {
		s.missNS = append(s.missNS, d)
	}
	s.mu.Unlock()
	return res, ok
}

func (s *timedStore) Put(k campaign.RunKey, res campaign.RunResult) {
	t0 := time.Now()
	s.inner.Put(k, res)
	d := float64(time.Since(t0).Nanoseconds())
	s.tr.since("store.put", 0, 0, t0)
	s.mu.Lock()
	s.put = append(s.put, d)
	s.mu.Unlock()
}

func (s *timedStore) Stats() campaign.CacheStats { return s.inner.Stats() }

// report adds the store's per-layer metrics to m.
func (s *timedStore) report(m *measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, xs := range map[string][]float64{
		"campaign.store.get_hit_ns":  s.hitNS,
		"campaign.store.get_miss_ns": s.missNS,
		"campaign.store.put_ns":      s.put,
	} {
		if len(xs) > 0 {
			m.layer(name, median(xs))
		}
	}
	if n := len(s.hitNS) + len(s.missNS); n > 0 {
		m.layer("campaign.store.hit_ratio", float64(len(s.hitNS))/float64(n))
	}
}

// freshStore returns a new empty in-memory store, routed through ts for
// timing when ts is non-nil (the traced phase).
func freshStore(ts *timedStore) campaign.ResultStore {
	mem := campaign.NewMemoryStore(0)
	if ts == nil {
		return mem
	}
	ts.inner = mem
	return ts
}

// jsonlDigest is the SHA-256 of the results' JSONL in index order, which
// does not depend on the order the runs executed in.
func jsonlDigest(results []campaign.RunResult) (string, error) {
	sorted := append([]campaign.RunResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	h := sha256.New()
	if err := campaign.WriteJSONL(h, sorted); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runCampaign executes the flagship campaign cold, pass after pass: each
// pass expands the spec, builds an engine over a fresh store and hands it
// the runs in a seeded order. The operation a user waits for is the whole
// pass; per-run times are a per-layer metric. The index-ordered JSONL must
// match the committed digest on every pass.
func runCampaign(cfg config, exp *expectation, tr *tracer) measurement {
	var m measurement
	spec := campaign.Flagship()
	if cfg.toy {
		spec = campaign.Example()
	}
	runs, err := spec.Expand()
	if err != nil {
		m.fail("expand: %v", err)
		return m
	}
	order := permutation(cfg.seed, 1, len(runs))

	warm, err := campaign.NewEngine(campaign.Config{Workers: workers})
	if err == nil {
		_, err = warm.Execute(runs[:min(36, len(runs))])
	}
	if err != nil {
		m.fail("warm-up: %v", err)
		return m
	}

	var (
		wall    []float64
		busy    []float64
		results []campaign.RunResult
		eng     *campaign.Engine
		digest  string
		ts      *timedStore
	)
	if tr != nil {
		ts = &timedStore{tr: tr}
	}
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		passID := tr.id()
		var onResult func(campaign.RunResult)
		if tr != nil {
			onResult = func(r campaign.RunResult) {
				end := time.Now()
				tr.record(0, "campaign.run", passID, 0, end.Add(-time.Duration(r.WallSeconds*1e9)), end)
			}
		}
		t0 := time.Now()
		var shuffled []campaign.Run
		for j := 0; j < setupsPerRun; j++ {
			t1 := time.Now()
			runs, err := spec.Expand()
			if err != nil {
				m.fail("expand: %v", err)
				return m
			}
			tr.since("campaign.expand", passID, 0, t1)
			t2 := time.Now()
			eng, err = campaign.NewEngine(campaign.Config{Workers: workers, Store: freshStore(ts), OnResult: onResult})
			if err != nil {
				m.fail("engine: %v", err)
				return m
			}
			shuffled = make([]campaign.Run, len(runs))
			for i, k := range order {
				shuffled[i] = runs[k]
			}
			m.Setup = append(m.Setup, time.Since(t1).Seconds())
			tr.since("campaign.new_engine", passID, 0, t2)
		}

		t2 := time.Now()
		results, err = eng.Execute(shuffled)
		d := time.Since(t2)
		tr.record(passID, "pass", 0, 0, t0, time.Now())
		m.Attempted += len(results)
		var sum float64
		for _, r := range results {
			if r.Error != "" {
				m.fail("run %d: %s", r.Index, r.Error)
			}
			wall = append(wall, r.WallSeconds*1e3)
			sum += r.WallSeconds
		}
		if err != nil {
			continue
		}
		m.OpMS = append(m.OpMS, ms(d))
		m.Rates = append(m.Rates, float64(len(results))/d.Seconds())
		busy = append(busy, sum/(workers*d.Seconds()))
		got, err := jsonlDigest(results)
		switch {
		case err != nil:
			m.fail("encoding results: %v", err)
		case digest != "" && got != digest:
			m.fail("pass %d digest %s differs from pass 0's %s", pass, got, digest)
		case digest == "":
			digest = got
			m.Observed.Digest = got
			m.checkDigest(got, exp)
		}
		if pass == 0 {
			m.HeapMB = heapMB()
			runtime.KeepAlive(eng)
			runtime.KeepAlive(results)
		}
	}

	if tr != nil {
		m.layer("campaign.run_wall_ms_p50", median(wall))
		m.layer("campaign.run_wall_ms_p99", summarizeTail(wall, "ms").Value)
		m.layer("campaign.worker_busy_frac", median(busy))
		ts.report(&m)
	}
	return m
}

func (m *measurement) checkDigest(got string, exp *expectation) {
	switch {
	case exp == nil:
		m.mismatch("no committed values for this workload (run with -bless)")
	case got != exp.Digest:
		m.mismatch("output digest %s, committed %s", got, exp.Digest)
	}
}
