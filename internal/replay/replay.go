// Package replay implements the versioned op-trace format: a JSONL file
// holding the exact per-rank operation streams a simulation consumed —
// recorded through the obs flight recorder's Ops stream — together with
// the machine and decomposition needed to re-execute them, and the
// original result for a bit-for-bit diff.
//
// The format is line-oriented JSON with a schema_version'd header line
// followed by one record per rank:
//
//	{"schema_version":1,"kind":"optrace","machine":{...},"grid":{...},...}
//	{"rank":0,"kinds":"AAEC...","peers":[...],"bytes":[...],"durs":[...]}
//	{"rank":1,...}
//
// Rank records store the op stream as parallel arrays: kinds is the
// base64 of one byte per op (JSON's []byte encoding), peers/bytes are
// exact integers, and durs round-trips exactly because Go encodes
// float64 with the shortest representation that parses back to the same
// bits. Ops are recorded pre-expansion — a collective appears as its
// single program op, and replay re-derives the point-to-point
// constituents through the same deterministic expansion — so traces
// stay proportional to the program, not to P × collective size.
//
// Replaying a trace on the same code version must reproduce the header
// result exactly; Diff reports any field that does not match bit for
// bit. Re-recording during replay (Options.Rec) therefore yields a
// byte-identical trace file, which is the CI round-trip gate.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/simnet"
)

// SchemaVersion is the trace format version. Readers reject any other
// version: a trace records exact durations of a specific schedule
// generation, so silent cross-version reuse would "replay" a different
// computation.
const SchemaVersion = 1

// Kind is the header's format discriminator.
const Kind = "optrace"

// Header is the first line of a trace file: the identity of the
// recorded run (enough to rebuild the topology and re-execute the op
// streams) plus the original result for bit-for-bit diffing.
type Header struct {
	Schema int    `json:"schema_version"`
	Kind   string `json:"kind"`

	// App and Workload are informational labels for humans and tools;
	// replay does not interpret them.
	App      string `json:"app,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Machine, Grid and the decomposition shape rebuild the simulated
	// hardware: ranks = dec_n × dec_m placed by the machine's layout.
	Machine config.MachineSpec `json:"machine"`
	Grid    config.GridSpec    `json:"grid"`
	DecN    int                `json:"dec_n"`
	DecM    int                `json:"dec_m"`

	// Result fields of the recorded run, bit-exact.
	SimUS     float64 `json:"sim_us"`
	Events    uint64  `json:"events"`
	Messages  uint64  `json:"messages"`
	BytesSent uint64  `json:"bytes_sent"`
}

// Ranks returns the recorded rank count.
func (h *Header) Ranks() int { return h.DecN * h.DecM }

// WithResult returns a copy of the header with the result fields taken
// from res — how both recorders and replayers stamp their headers.
func (h Header) WithResult(res simmpi.Result) Header {
	h.Schema = SchemaVersion
	h.Kind = Kind
	h.SimUS = res.Time
	h.Events = res.Events
	h.Messages = res.Sends
	h.BytesSent = res.BytesSent
	return h
}

// rankRec is one rank's op stream as parallel arrays (see package doc).
type rankRec struct {
	Rank  int       `json:"rank"`
	Kinds []byte    `json:"kinds"`
	Peers []int32   `json:"peers"`
	Bytes []int32   `json:"bytes"`
	Durs  []float64 `json:"durs"`
}

// Write renders a trace: the header line, then one line per rank in
// rank order, from the recorder's Ops stream. The recorder must have
// been attached with Ops enabled to the run the header describes. The
// output is deterministic: same recording, same bytes.
func Write(w io.Writer, hdr Header, rec *obs.Recorder) error {
	if hdr.Schema != SchemaVersion || hdr.Kind != Kind {
		return fmt.Errorf("replay: header not stamped (schema %d kind %q); use WithResult", hdr.Schema, hdr.Kind)
	}
	if got := rec.Ranks(); got != hdr.Ranks() {
		return fmt.Errorf("replay: recorder holds %d ranks, header describes %d", got, hdr.Ranks())
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("replay: encode header: %w", err)
	}
	for r := 0; r < hdr.Ranks(); r++ {
		ops := rec.RankOps(r)
		rr := rankRec{
			Rank:  r,
			Kinds: make([]byte, len(ops)),
			Peers: make([]int32, len(ops)),
			Bytes: make([]int32, len(ops)),
			Durs:  make([]float64, len(ops)),
		}
		for i, op := range ops {
			rr.Kinds[i] = op.Kind
			rr.Peers[i] = op.Peer
			rr.Bytes[i] = op.Bytes
			rr.Durs[i] = op.Dur
		}
		if err := enc.Encode(rr); err != nil {
			return fmt.Errorf("replay: encode rank %d: %w", r, err)
		}
	}
	return bw.Flush()
}

// Read parses and validates a trace: the header plus every rank's op
// stream, indexed by rank. Each op is checked just far enough that
// replaying it cannot corrupt the simulator (kind known, peers in
// range, durations finite and non-negative, collective algorithms
// valid).
func Read(r io.Reader) (Header, [][]simmpi.Op, error) {
	var hdr Header
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20) // rank lines of long runs exceed the 64KB default
	if !sc.Scan() {
		return hdr, nil, fmt.Errorf("replay: empty trace: %w", sc.Err())
	}
	if err := config.DecodeStrict(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("replay: header: %w", err)
	}
	if hdr.Schema != SchemaVersion {
		return hdr, nil, fmt.Errorf("replay: trace schema_version %d, this reader supports %d", hdr.Schema, SchemaVersion)
	}
	if hdr.Kind != Kind {
		return hdr, nil, fmt.Errorf("replay: not an op trace (kind %q)", hdr.Kind)
	}
	// Op peers are int32, so a run holds at most MaxInt32 ranks; the bound
	// also rejects a dec_n × dec_m product that would overflow int.
	if hdr.DecN <= 0 || hdr.DecM <= 0 || hdr.DecN > math.MaxInt32/hdr.DecM {
		return hdr, nil, fmt.Errorf("replay: invalid decomposition %dx%d", hdr.DecN, hdr.DecM)
	}
	// The tables grow with the records actually read, never with the
	// header's claim, so memory stays bounded by the input.
	ranks := hdr.Ranks()
	streams := make(map[int][]simmpi.Op)
	for line := 2; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rr rankRec
		if err := config.DecodeStrict(sc.Bytes(), &rr); err != nil {
			return hdr, nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		if rr.Rank < 0 || rr.Rank >= ranks {
			return hdr, nil, fmt.Errorf("replay: line %d: rank %d outside %d ranks", line, rr.Rank, ranks)
		}
		if _, dup := streams[rr.Rank]; dup {
			return hdr, nil, fmt.Errorf("replay: line %d: duplicate record for rank %d", line, rr.Rank)
		}
		n := len(rr.Kinds)
		if len(rr.Peers) != n || len(rr.Bytes) != n || len(rr.Durs) != n {
			return hdr, nil, fmt.Errorf("replay: line %d: rank %d arrays disagree (%d kinds, %d peers, %d bytes, %d durs)",
				line, rr.Rank, n, len(rr.Peers), len(rr.Bytes), len(rr.Durs))
		}
		stream := make([]simmpi.Op, n)
		for i := 0; i < n; i++ {
			op := simmpi.Op{
				Kind:  simmpi.OpKind(rr.Kinds[i]),
				Peer:  rr.Peers[i],
				Bytes: rr.Bytes[i],
				Dur:   rr.Durs[i],
			}
			if err := checkOp(op, rr.Rank, ranks); err != nil {
				return hdr, nil, fmt.Errorf("replay: line %d: rank %d op %d: %w", line, rr.Rank, i, err)
			}
			stream[i] = op
		}
		streams[rr.Rank] = stream
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("replay: %w", err)
	}
	ops := make([][]simmpi.Op, len(streams))
	for r := range ops {
		stream, ok := streams[r]
		if !ok {
			return hdr, nil, fmt.Errorf("replay: trace has no record for rank %d", r)
		}
		ops[r] = stream
	}
	if len(ops) != ranks {
		return hdr, nil, fmt.Errorf("replay: trace has no record for rank %d", len(ops))
	}
	return hdr, ops, nil
}

// checkOp validates one op against the run shape.
func checkOp(op simmpi.Op, rank, ranks int) error {
	if op.Dur < 0 || math.IsNaN(op.Dur) || math.IsInf(op.Dur, 0) {
		return fmt.Errorf("invalid duration %v", op.Dur)
	}
	if op.Bytes < 0 {
		return fmt.Errorf("negative byte count %d", op.Bytes)
	}
	switch op.Kind {
	case simmpi.OpCompute:
		return nil
	case simmpi.OpSend, simmpi.OpRecv:
		if op.Peer < 0 || int(op.Peer) >= ranks || int(op.Peer) == rank {
			return fmt.Errorf("peer %d invalid for rank %d of %d", op.Peer, rank, ranks)
		}
		return nil
	case simmpi.OpAllReduce:
		if !simmpi.ValidAllReduceAlg(simmpi.CollAlgOf(op)) {
			return fmt.Errorf("invalid all-reduce algorithm %d", op.Peer)
		}
		return nil
	case simmpi.OpBcast:
		if op.Peer < 0 || int(op.Peer) >= ranks {
			return fmt.Errorf("bcast root %d outside %d ranks", op.Peer, ranks)
		}
		return nil
	case simmpi.OpBarrier:
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// Options configures replay execution.
type Options struct {
	// Shards is the simulator shard count; 0 or 1 is serial, matching
	// the default recording path.
	Shards int
	// Rec, if non-nil, is attached to the replay simulation — with Ops
	// enabled it re-records the trace, the round-trip used by the CI
	// smoke.
	Rec *obs.Recorder
}

// Replay rebuilds the recorded run's topology from the header and
// re-executes the op streams.
func Replay(hdr Header, ops [][]simmpi.Op, o Options) (simmpi.Result, error) {
	var zero simmpi.Result
	if len(ops) != hdr.Ranks() {
		return zero, fmt.Errorf("replay: %d op streams for %d ranks", len(ops), hdr.Ranks())
	}
	mach, err := hdr.Machine.Machine()
	if err != nil {
		return zero, fmt.Errorf("replay: %w", err)
	}
	if hdr.Grid.Nx <= 0 || hdr.Grid.Ny <= 0 || hdr.Grid.Nz <= 0 {
		return zero, fmt.Errorf("replay: invalid grid %+v", hdr.Grid)
	}
	dec, err := grid.NewDecomposition(grid.NewGrid(hdr.Grid.Nx, hdr.Grid.Ny, hdr.Grid.Nz), hdr.DecN, hdr.DecM)
	if err != nil {
		return zero, fmt.Errorf("replay: %w", err)
	}
	topo, err := simnet.NewMachineTopology(mach, dec)
	if err != nil {
		return zero, fmt.Errorf("replay: %w", err)
	}
	sim, err := simmpi.NewWithOptions(topo, simmpi.Options{Shards: o.Shards, Obs: o.Rec})
	if err != nil {
		return zero, fmt.Errorf("replay: %w", err)
	}
	for r, stream := range ops {
		sim.SetProgram(r, simmpi.Ops(stream...))
	}
	res, err := sim.Run()
	if err != nil {
		return zero, fmt.Errorf("replay: %w", err)
	}
	return res, nil
}

// Diff compares a replay result against the recorded header bit for
// bit and returns a human-readable line per mismatching field; nil
// means the replay reproduced the recording exactly.
func Diff(hdr Header, res simmpi.Result) []string {
	var out []string
	if math.Float64bits(res.Time) != math.Float64bits(hdr.SimUS) {
		out = append(out, fmt.Sprintf("sim_us: recorded %v (%#x), replayed %v (%#x)",
			hdr.SimUS, math.Float64bits(hdr.SimUS), res.Time, math.Float64bits(res.Time)))
	}
	if res.Events != hdr.Events {
		out = append(out, fmt.Sprintf("events: recorded %d, replayed %d", hdr.Events, res.Events))
	}
	if res.Sends != hdr.Messages {
		out = append(out, fmt.Sprintf("messages: recorded %d, replayed %d", hdr.Messages, res.Sends))
	}
	if res.BytesSent != hdr.BytesSent {
		out = append(out, fmt.Sprintf("bytes_sent: recorded %d, replayed %d", hdr.BytesSent, res.BytesSent))
	}
	return out
}
