package hypothesis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// saneRow builds a RunResult that satisfies every invariant.
func saneRow(mutate func(*campaign.RunResult)) campaign.RunResult {
	r := campaign.RunResult{
		Schema: 1, App: "LU", Grid: "24x24x24", Machine: "xt4", P: 16,
		ModelMicros: 100, SimMicros: 104,
		RelErr: -0.0384615384615385, AbsErr: 0.0384615384615385,
		Band:   metrics.ErrorBand(0.0384615384615385),
		Events: 50, Messages: 20, BytesSent: 4096,
	}
	if mutate != nil {
		mutate(&r)
	}
	return r
}

// armOf wraps rows into an Arm whose two executions agree.
func armOf(rows ...campaign.RunResult) Arm {
	jsonl := []byte("rows")
	return Arm{Name: "baseline", Seed: 42, Rows: rows, JSONL: jsonl, AltRows: rows, AltJSONL: jsonl}
}

func TestDeterminismInvariant(t *testing.T) {
	ok := armOf(saneRow(nil))
	if v := checkDeterminism(ok); len(v) != 0 {
		t.Errorf("identical executions flagged: %v", v)
	}
	bad := ok
	bad.AltJSONL = []byte("other")
	bad.AltRows = []campaign.RunResult{saneRow(func(r *campaign.RunResult) { r.SimMicros = 999 })}
	v := checkDeterminism(bad)
	if len(v) != 1 || !strings.Contains(v[0], "diverge") {
		t.Errorf("divergent executions not flagged: %v", v)
	}
}

func TestByteConservationInvariant(t *testing.T) {
	inv := checkByteConservation
	if v := inv(armOf(saneRow(nil))); len(v) != 0 {
		t.Errorf("sane row flagged: %v", v)
	}
	cases := []struct {
		name   string
		mutate func(*campaign.RunResult)
		want   string
	}{
		{"silent multi-rank run", func(r *campaign.RunResult) { r.BytesSent = 0; r.Messages = 0 }, "must communicate"},
		{"chatty single-rank run", func(r *campaign.RunResult) { r.P = 1 }, "single-rank"},
		{"bytes without messages", func(r *campaign.RunResult) { r.Messages = 0 }, "zero together"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := inv(armOf(saneRow(tc.mutate)))
			if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Errorf("violations = %v, want one mentioning %q", v, tc.want)
			}
		})
	}
	// Cross-execution drift in the byte counter.
	a := armOf(saneRow(nil))
	a.AltRows = []campaign.RunResult{saneRow(func(r *campaign.RunResult) { r.BytesSent = 1 })}
	if v := inv(a); len(v) == 0 || !strings.Contains(v[0], "not conserved") {
		t.Errorf("cross-execution byte drift not flagged: %v", v)
	}
}

func TestEventConservationInvariant(t *testing.T) {
	inv := checkEventConservation
	if v := inv(armOf(saneRow(nil))); len(v) != 0 {
		t.Errorf("sane row flagged: %v", v)
	}
	if v := inv(armOf(saneRow(func(r *campaign.RunResult) { r.Events = 0 }))); len(v) == 0 {
		t.Error("zero-event run not flagged")
	}
	if v := inv(armOf(saneRow(func(r *campaign.RunResult) { r.Events = 5 }))); len(v) == 0 {
		t.Error("events < messages not flagged")
	}
	a := armOf(saneRow(nil))
	a.AltRows = []campaign.RunResult{saneRow(func(r *campaign.RunResult) { r.Events = 51 })}
	if v := inv(a); len(v) == 0 {
		t.Error("cross-execution event drift not flagged")
	}
}

func TestMonotoneInPInvariant(t *testing.T) {
	inv := checkMonotoneInP
	p16 := saneRow(nil)
	p64 := saneRow(func(r *campaign.RunResult) { r.P = 64; r.SimMicros = 40 })
	if v := inv(armOf(p16, p64)); len(v) != 0 {
		t.Errorf("proper scaling flagged: %v", v)
	}
	slow64 := saneRow(func(r *campaign.RunResult) { r.P = 64; r.SimMicros = 200 })
	v := inv(armOf(p16, slow64))
	if len(v) != 1 || !strings.Contains(v[0], "grows with ranks") {
		t.Errorf("inverted scaling not flagged: %v", v)
	}
	// Rows in different groups (different machines) never compare.
	other := saneRow(func(r *campaign.RunResult) { r.P = 64; r.SimMicros = 200; r.Machine = "other" })
	if v := inv(armOf(p16, other)); len(v) != 0 {
		t.Errorf("cross-group comparison: %v", v)
	}
}

func TestMonotoneInOverrideInvariant(t *testing.T) {
	inv := checkMonotoneInOverride
	fast := saneRow(func(r *campaign.RunResult) { r.Override = "fast-net"; r.SimMicros = 80 })
	base := saneRow(func(r *campaign.RunResult) { r.Override = "baseline" })
	slow := saneRow(func(r *campaign.RunResult) { r.Override = "slow-net"; r.SimMicros = 300 })
	if v := inv(armOf(fast, base, slow)); len(v) != 0 {
		t.Errorf("proper slowdown flagged: %v", v)
	}
	tooFast := saneRow(func(r *campaign.RunResult) { r.Override = "slow-net"; r.SimMicros = 50 })
	v := inv(armOf(fast, base, tooFast))
	if len(v) == 0 || !strings.Contains(v[0], "slower network is faster") {
		t.Errorf("inverted override ordering not flagged: %v", v)
	}
	// Overrides outside the declared order are ignored, not compared.
	odd := saneRow(func(r *campaign.RunResult) { r.Override = "half-overhead"; r.SimMicros = 1 })
	if v := inv(armOf(base, odd)); len(v) != 0 {
		t.Errorf("undeclared override compared: %v", v)
	}
}

func TestErrorBandSanityInvariant(t *testing.T) {
	inv := checkErrorBand
	if v := inv(armOf(saneRow(nil))); len(v) != 0 {
		t.Errorf("sane row flagged: %v", v)
	}
	cases := []struct {
		name   string
		mutate func(*campaign.RunResult)
		want   string
	}{
		{"zero sim time", func(r *campaign.RunResult) { r.SimMicros = 0 }, "non-positive times"},
		{"abs/rel mismatch", func(r *campaign.RunResult) { r.AbsErr = 0.5 }, "not |rel_err|"},
		{"wrong band", func(r *campaign.RunResult) { r.Band = ">=20%" }, "inconsistent"},
		{"insane error", func(r *campaign.RunResult) {
			r.RelErr = 15
			r.AbsErr = 15
			r.Band = metrics.ErrorBand(15)
		}, "sanity ceiling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := inv(armOf(saneRow(tc.mutate)))
			if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Errorf("violations = %v, want one mentioning %q", v, tc.want)
			}
		})
	}
}

// TestDefaultInvariantsNames: the standing suite is the documented
// sextet, in report order.
func TestDefaultInvariantsNames(t *testing.T) {
	var got []string
	for _, inv := range invariants {
		got = append(got, inv.name)
	}
	want := []string{"cross-worker-determinism", "byte-conservation", "event-conservation",
		"runtime-monotone-in-p", "runtime-monotone-in-link-bw", "model-error-band-sanity"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("standing invariants %v, want %v", got, want)
	}
}
