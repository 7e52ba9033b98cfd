package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
)

// modelEval is one planner query: a model and the core count to evaluate.
type modelEval struct {
	model *core.Model
	p     int
}

// modelScan builds the scan's evaluations in canonical order: each paper
// benchmark on a 1000³ grid × XT4-like nodes of 1/2/4/8 cores × htile
// 1/2/4/8 × P = 1K…128K in powers of two (384 evaluations).
func modelScan(toy bool) ([]modelEval, error) {
	g := grid.Cube(1000)
	ps := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}
	if toy {
		ps = []int{16, 64}
	}
	var evals []modelEval
	for _, app := range []string{"lu", "sweep3d", "chimaera"} {
		for _, cores := range []int{1, 2, 4, 8} {
			mach, err := machine.XT4MultiCore(cores)
			if err != nil {
				return nil, err
			}
			for _, htile := range []int{1, 2, 4, 8} {
				bm, err := apps.Preset(app, g, htile)
				if err != nil {
					return nil, err
				}
				mo := core.New(bm.App, mach)
				for _, p := range ps {
					evals = append(evals, modelEval{mo, p})
				}
			}
		}
	}
	return evals, nil
}

// runModel scans the analytic model repeatedly, each scan in a seeded
// order, until cfg.seconds have passed. The digest over every Report.Total
// in canonical order must match the committed one on every scan.
func runModel(cfg config, exp *expectation, tr *tracer) measurement {
	var m measurement
	evals, err := modelScan(cfg.toy)
	if err != nil {
		m.fail("%v", err)
		return m
	}
	order := permutation(cfg.seed, 1, len(evals))
	totals := make([]float64, len(evals))
	// scan evaluates every query in the seeded order, keeping each latency
	// and total at the query's canonical index.
	scan := func(parent uint64) ([]float64, time.Duration, error) {
		lat := make([]float64, len(evals))
		t0 := time.Now()
		for _, i := range order {
			t := time.Now()
			rep, err := evals[i].model.EvaluateP(evals[i].p)
			lat[i] = ms(time.Since(t))
			tr.since("core.evaluate", parent, 0, t)
			if err != nil {
				return nil, 0, err
			}
			totals[i] = rep.Total
		}
		return lat, time.Since(t0), nil
	}
	if _, _, err := scan(0); err != nil { // warm-up
		m.fail("warm-up scan: %v", err)
		return m
	}

	digest := ""
	start := time.Now()
	for i := 0; i < 3 || time.Since(start).Seconds() < cfg.seconds; i++ {
		id := tr.id()
		t0 := time.Now()
		for j := 0; j < setupsPerRun; j++ {
			t1 := time.Now()
			if evals, err = modelScan(cfg.toy); err != nil {
				m.fail("%v", err)
				return m
			}
			m.Setup = append(m.Setup, time.Since(t1).Seconds())
			tr.since("setup.models", id, 0, t1)
		}

		lat, d, err := scan(id)
		tr.record(id, "scan", 0, 0, t0, time.Now())
		m.Attempted += len(evals)
		if err != nil {
			m.fail("scan %d: %v", i, err)
			continue
		}
		m.OpMS = append(m.OpMS, lat...)
		m.Rates = append(m.Rates, float64(len(evals))/d.Seconds())
		got := totalsDigest(totals)
		switch {
		case digest != "" && got != digest:
			m.fail("scan %d digest %s differs from scan 0's %s", i, got, digest)
		case digest == "":
			digest = got
			m.Observed.Digest = got
			m.checkDigest(got, exp)
			m.HeapMB = heapMB()
			runtime.KeepAlive(evals)
		}
	}
	return m
}

// totalsDigest is the SHA-256 over the bits of every total, in order.
func totalsDigest(totals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range totals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
