package obs

import (
	"math"
	"strings"
	"testing"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Ldexp(1, histMinExp-5), 1},  // below the first bucket clamps up
		{math.Ldexp(1, histMinExp), 1},    // 2^histMinExp: first bucket's lower bound
		{math.Ldexp(0.75, histMinExp), 1}, // below the first bucket clamps up
		{1, 1 - histMinExp},               // [0.5, 1) boundary: 1 starts the next bucket
		{0.75, -histMinExp},
		{math.MaxFloat64, histBuckets - 1}, // above the top clamps down
		{math.Inf(1), histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketRepInsideBucket(t *testing.T) {
	if bucketRep(0) != 0 {
		t.Errorf("zero-bucket rep = %g", bucketRep(0))
	}
	for b := 1; b < histBuckets; b++ {
		lo := math.Ldexp(1, histMinExp+b-1)
		hi := math.Ldexp(1, histMinExp+b)
		if rep := bucketRep(b); rep < lo || rep >= hi {
			t.Errorf("bucket %d rep %g outside [%g, %g)", b, rep, lo, hi)
		}
		if bucketOf(bucketRep(b)) != b {
			t.Errorf("bucket %d rep %g maps to bucket %d", b, bucketRep(b), bucketOf(bucketRep(b)))
		}
	}
}

func TestQuantileAndMean(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
	// 90 observations near 1µs, 10 near 1000µs: p50/p90 land in the small
	// bucket, p99 in the large one.
	for i := 0; i < 90; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	small, large := bucketRep(bucketOf(1.5)), bucketRep(bucketOf(1000))
	if got := h.Quantile(0.5); got != small {
		t.Errorf("p50 = %g, want %g", got, small)
	}
	if got := h.Quantile(0.9); got != small {
		t.Errorf("p90 = %g, want %g (90th observation is still small)", got, small)
	}
	if got := h.Quantile(0.99); got != large {
		t.Errorf("p99 = %g, want %g", got, large)
	}
	if got := h.Quantile(0); got != small {
		t.Errorf("q=0 clamps to first observation, got %g", got)
	}
	if got := h.Quantile(1); got != large {
		t.Errorf("q=1 = %g, want %g", got, large)
	}
}

func TestMergeMatchesCombinedObservation(t *testing.T) {
	var a, b, all Hist
	vals := []float64{0, 0.001, 1, 2, 4, 1024, 1e9}
	for i, v := range vals {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a != all {
		t.Errorf("merged histogram differs from direct observation:\n a  %+v\n all %+v", a, all)
	}
	a.Reset()
	if a.N() != 0 || a.Quantile(0.5) != 0 {
		t.Errorf("reset histogram not empty: %+v", a)
	}
}

func TestSummaryFormat(t *testing.T) {
	var h Hist
	if h.Summary() != "n=0" {
		t.Errorf("empty summary = %q", h.Summary())
	}
	h.Observe(3)
	s := h.Summary()
	for _, want := range []string{"n=1", "p50=", "p90=", "p99=", "µs"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestSimHistsWriteAndMerge(t *testing.T) {
	var a, b SimHists
	a.RecvWait.Observe(1)
	b.MsgLatency.Observe(2)
	b.LinkDelay.Observe(3)
	b.WindowStall.Observe(4)
	a.Merge(&b)
	var sb strings.Builder
	a.Write(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("Write produced %d lines:\n%s", len(lines), out)
	}
	for i, name := range []string{"recv_wait", "msg_latency", "link_delay", "window_stall"} {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], name)
		}
		if !strings.Contains(lines[i], "n=1") {
			t.Errorf("line %d = %q, want one observation", i, lines[i])
		}
	}
	a.Reset()
	if a.RecvWait.N() != 0 || a.WindowStall.N() != 0 {
		t.Error("Reset left observations behind")
	}
}
