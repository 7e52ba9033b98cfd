package replay

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// record runs a small Sweep3D with a lognormal+noise workload under an
// Ops recorder and returns the stamped header, the recorder, and the
// result.
func record(t testing.TB, shards int) (Header, *obs.Recorder, simmpi.Result) {
	t.Helper()
	mspec := config.MachineSpec{Preset: "xt4", CoresPerNode: 2}
	mach, err := mspec.Machine()
	if err != nil {
		t.Fatalf("Machine: %v", err)
	}
	g := grid.Cube(16)
	dec := grid.MustDecompose(g, 4, 2)
	wl := workload.Spec{Dist: workload.DistLognormal, Sigma: 0.4, Seed: 7,
		Noise: &workload.NoiseSpec{Rate: 0.5, AmpUS: 25}}
	bm := apps.Sweep3D(g, 2).WithWorkload(wl)
	sched, err := bm.Schedule(dec, 2)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	topo, err := simnet.NewMachineTopology(mach, dec)
	if err != nil {
		t.Fatalf("NewMachineTopology: %v", err)
	}
	rec := &obs.Recorder{Ops: true}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: shards, Obs: rec})
	if err != nil {
		t.Fatalf("NewWithOptions: %v", err)
	}
	for r, prog := range sched.Programs() {
		sim.SetProgram(r, prog)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hdr := Header{
		App:      bm.App.Name,
		Workload: wl.String(),
		Machine:  mspec,
		Grid:     config.GridSpec{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz},
		DecN:     dec.N,
		DecM:     dec.M,
	}.WithResult(res)
	return hdr, rec, res
}

func TestRoundTripBitIdentical(t *testing.T) {
	hdr, rec, _ := record(t, 1)

	var trace bytes.Buffer
	if err := Write(&trace, hdr, rec); err != nil {
		t.Fatalf("Write: %v", err)
	}

	gotHdr, ops, err := Read(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if gotHdr != hdr {
		t.Fatalf("header round-trip changed: %+v != %+v", gotHdr, hdr)
	}

	rec2 := &obs.Recorder{Ops: true}
	res, err := Replay(gotHdr, ops, Options{Rec: rec2})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if diffs := Diff(gotHdr, res); diffs != nil {
		t.Fatalf("replay diverged:\n%s", strings.Join(diffs, "\n"))
	}

	var trace2 bytes.Buffer
	if err := Write(&trace2, gotHdr.WithResult(res), rec2); err != nil {
		t.Fatalf("re-record Write: %v", err)
	}
	if !bytes.Equal(trace.Bytes(), trace2.Bytes()) {
		t.Fatal("re-recorded trace is not byte-identical to the original")
	}
}

// The recorded op stream must be invariant to the recording run's shard
// count: ops are per-rank program order, not event order.
func TestRecordingShardInvariant(t *testing.T) {
	hdr1, rec1, _ := record(t, 1)
	hdr4, rec4, _ := record(t, 4)
	var t1, t4 bytes.Buffer
	// Stamp both headers from the serial result so only the op streams
	// are compared; sharded and serial results themselves are compared
	// elsewhere.
	if err := Write(&t1, hdr1, rec1); err != nil {
		t.Fatalf("Write serial: %v", err)
	}
	hdr4.SimUS, hdr4.Events = hdr1.SimUS, hdr1.Events
	hdr4.Messages, hdr4.BytesSent = hdr1.Messages, hdr1.BytesSent
	if err := Write(&t4, hdr4, rec4); err != nil {
		t.Fatalf("Write sharded: %v", err)
	}
	if !bytes.Equal(t1.Bytes(), t4.Bytes()) {
		t.Fatal("op streams differ between shard counts 1 and 4")
	}
}

func TestDiffDetectsTampering(t *testing.T) {
	hdr, rec, _ := record(t, 1)
	var trace bytes.Buffer
	if err := Write(&trace, hdr, rec); err != nil {
		t.Fatalf("Write: %v", err)
	}
	gotHdr, ops, err := Read(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Lengthen every compute: a single tampered op deep in the pipeline
	// can hide in slack, but a global slowdown cannot.
	found := false
	for _, stream := range ops {
		for i := range stream {
			if stream[i].Kind == simmpi.OpCompute && stream[i].Dur > 0 {
				stream[i].Dur *= 2
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no compute op to tamper with")
	}
	res, err := Replay(gotHdr, ops, Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if diffs := Diff(gotHdr, res); diffs == nil {
		t.Fatal("Diff missed a tampered trace")
	}
}

func TestReadRejects(t *testing.T) {
	hdr, rec, _ := record(t, 1)
	var trace bytes.Buffer
	if err := Write(&trace, hdr, rec); err != nil {
		t.Fatalf("Write: %v", err)
	}
	lines := strings.SplitAfter(trace.String(), "\n")

	for name, mangle := range map[string]string{
		"empty":           "",
		"wrong version":   strings.Replace(lines[0], `"schema_version":1`, `"schema_version":2`, 1) + strings.Join(lines[1:], ""),
		"wrong kind":      strings.Replace(lines[0], `"kind":"optrace"`, `"kind":"spans"`, 1) + strings.Join(lines[1:], ""),
		"missing rank":    strings.Join(lines[:len(lines)-2], ""),
		"duplicate rank":  trace.String() + lines[1],
		"unknown field":   lines[0] + `{"rank":0,"kinds":"","peers":[],"bytes":[],"durs":[],"bogus":1}` + "\n",
		"ragged arrays":   lines[0] + strings.Replace(lines[1], `"peers":[`, `"peers":[99999,`, 1) + strings.Join(lines[2:], ""),
		"rank overflow":   strings.Replace(lines[0], `"dec_n":4,"dec_m":2`, `"dec_n":3037000500,"dec_m":3037000500`, 1),
		"rank past int32": strings.Replace(lines[0], `"dec_n":4,"dec_m":2`, `"dec_n":65536,"dec_m":32768`, 1) + strings.Join(lines[1:], ""),
	} {
		if _, _, err := Read(strings.NewReader(mangle)); err == nil {
			t.Errorf("%s: Read accepted a malformed trace", name)
		}
	}
}

// FuzzReplayRead drives arbitrary bytes through Read. No input may panic
// — a header's rank count included, which Read must not trust before the
// records arrive — and an accepted trace holds exactly one stream per rank
// the header declares, every op of which passes checkOp.
func FuzzReplayRead(f *testing.F) {
	hdr, rec, _ := record(f, 1)
	var trace bytes.Buffer
	if err := Write(&trace, hdr, rec); err != nil {
		f.Fatalf("Write: %v", err)
	}
	head, _, _ := strings.Cut(trace.String(), "\n")
	decomp := fmt.Sprintf(`"dec_n":%d,"dec_m":%d`, hdr.DecN, hdr.DecM)
	if !strings.Contains(head, decomp) {
		f.Fatalf("header %s does not spell %s", head, decomp)
	}
	f.Add(trace.Bytes())
	// dec_n × dec_m overflows int64 to a negative rank count.
	f.Add([]byte(strings.Replace(head, decomp, `"dec_n":3037000500,"dec_m":3037000500`, 1) + "\n"))
	f.Add([]byte(strings.Replace(head, decomp, `"dec_n":1,"dec_m":1`, 1) + "\n" +
		`{"rank":0,"kinds":"AA==","peers":[0],"bytes":[0],"durs":[1.5]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, ops, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		ranks := hdr.Ranks()
		if len(ops) != ranks {
			t.Fatalf("accepted a trace of %d streams for %d ranks", len(ops), ranks)
		}
		for r, stream := range ops {
			for i, op := range stream {
				if err := checkOp(op, r, ranks); err != nil {
					t.Fatalf("rank %d op %d accepted but invalid: %v", r, i, err)
				}
			}
		}
	})
}

func TestCheckOp(t *testing.T) {
	bad := []simmpi.Op{
		{Kind: simmpi.OpCompute, Dur: -1},
		{Kind: simmpi.OpCompute, Dur: math.NaN()},
		{Kind: simmpi.OpCompute, Dur: math.Inf(1)},
		{Kind: simmpi.OpSend, Peer: 8, Bytes: 1},
		{Kind: simmpi.OpSend, Peer: 0, Bytes: -1},
		{Kind: simmpi.OpSend, Peer: 0}, // self-send (rank 0)
		{Kind: simmpi.OpRecv, Peer: -1},
		{Kind: simmpi.OpAllReduce, Peer: 99, Bytes: 8},
		{Kind: simmpi.OpBcast, Peer: 8, Bytes: 8},
		{Kind: simmpi.OpKind(200)},
	}
	for _, op := range bad {
		if err := checkOp(op, 0, 8); err == nil {
			t.Errorf("checkOp(%+v) = nil, want error", op)
		}
	}
	good := []simmpi.Op{
		simmpi.Compute(0),
		simmpi.Send(1, 64),
		simmpi.Recv(7),
		simmpi.AllReduce(8),
		simmpi.AllReduceAlg(64, simmpi.AlgRing),
		simmpi.Bcast(3, 64),
		simmpi.Barrier(),
	}
	for _, op := range good {
		if err := checkOp(op, 0, 8); err != nil {
			t.Errorf("checkOp(%+v) = %v, want nil", op, err)
		}
	}
}
