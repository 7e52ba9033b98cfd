package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// RunKey is the content address of one campaign run: the SHA-256 of the
// run's identity rendering (appendIdentity), which covers everything that
// determines the run's result, from the application to the execution-mode
// bits that change output bytes.
//
// Two runs with the same RunKey produce byte-identical JSONL payloads, so
// a ResultStore can serve one's cached result for the other. Display-only
// strings — machine labels, override names, LogGP parameter-set names —
// deliberately stay out of the key: relabeling a machine must not evict
// its results.
type RunKey [sha256.Size]byte

// String renders the key as lower-case hex, the spelling used in
// checkpoint files, cache files and HTTP responses.
func (k RunKey) String() string { return hex.EncodeToString(k[:]) }

// ParseRunKey decodes the hex spelling produced by String.
func ParseRunKey(s string) (RunKey, error) {
	var k RunKey
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("campaign: %q is not a run key", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyMode carries the execution-mode bits that are part of a run's content
// identity because they change the emitted bytes: whether duration
// histograms are collected into the row, and whether the simulator uses
// the canonical sharded event order (any Shards ≥ 2 — all bit-identical to
// each other) or the legacy serial order (which may differ microscopically
// on tie-heavy configurations; see internal/simmpi/parallel.go). The shard
// count itself is a pure throughput knob and is deliberately excluded.
type KeyMode struct {
	Hist  bool
	Canon bool
}

// keyVersion heads the hashed identity. Bump it whenever the rendering
// changes, so records keyed by an older rendering miss instead of being
// served for a run they do not describe.
const keyVersion = "runkey/v2\n"

// componentNames are the identity's components in render order.
var componentNames = [...]string{"app", "collective", "workload", "machine", "node", "interconnect", "placement", "mode"}

// ContentKey computes the run's content address. The scratch buffer is
// reused and returned grown, so a caller hashing many runs performs no
// steady-state allocations; pass nil to let the first call allocate it.
func (r Run) ContentKey(mode KeyMode, scratch []byte) (RunKey, []byte) {
	var ends [len(componentNames)]int
	b := r.appendIdentity(append(scratch[:0], keyVersion...), mode, &ends)
	return sha256.Sum256(b), b
}

// appendIdentity appends the run's identity to b and records in ends the
// offset just past each component. It is the one list of the fields that
// determine a run's result bytes: ContentKey hashes the rendering and
// KeyComponents cuts it at the recorded ends.
//
// Each component is a space-separated run of "label=value" fields —
// strings quoted, floats in exact hex (distinct float64 values never
// collide), "none" for an absent block — ended by a newline, which no
// rendered value contains.
func (r Run) appendIdentity(b []byte, mode KeyMode, ends *[len(componentNames)]int) []byte {
	f := func(v float64) { b = append(strconv.AppendFloat(b, v, 'x', -1, 64), ' ') }
	i := func(v int) { b = append(strconv.AppendInt(b, int64(v), 10), ' ') }
	s := func(v string) { b = append(strconv.AppendQuote(b, v), ' ') }
	field := func(label string) { b = append(append(b, label...), '=') }
	comp := 0
	end := func() {
		if b[len(b)-1] == ' ' {
			b = b[:len(b)-1]
		}
		b = append(b, '\n')
		ends[comp] = len(b)
		comp++
	}
	app := r.bm.App

	// app: everything intrinsic to the application at any placement. The
	// provenance (src) is the preset name or a custom spec's JSON, the
	// part of the app's behavior a hash of numeric fields cannot see.
	field("name")
	s(app.Name)
	field("src")
	s(r.appSrc)
	field("grid")
	i(app.Grid.Nx)
	i(app.Grid.Ny)
	i(app.Grid.Nz)
	field("htile")
	i(app.Htile)
	field("wg_pre")
	f(app.WgPre)
	field("wg")
	f(app.Wg)
	field("sweeps")
	i(app.NSweeps)
	i(app.NFull)
	i(app.NDiag)
	field("corners")
	for _, c := range r.bm.Corners {
		i(int(c))
	}
	field("iterations")
	i(r.Iterations)
	end()

	// collective: the per-iteration convergence all-reduce. Its algorithm
	// is inert without a payload, so it renders only alongside one.
	if r.bm.ConvBytes > 0 {
		field("bytes")
		i(r.bm.ConvBytes)
		field("alg")
		i(int(r.bm.ConvAlg))
	} else {
		b = append(b, "none"...)
	}
	end()

	// workload: every knob of the per-tile compute perturbation.
	if wl := r.bm.Workload; wl != nil {
		field("dist")
		s(wl.Dist)
		field("seed")
		b = append(strconv.AppendUint(b, wl.Seed, 10), ' ')
		field("sigma")
		f(wl.Sigma)
		field("hot")
		f(wl.HotFrac)
		f(wl.HotMul)
		if n := wl.Noise; n != nil {
			field("noise")
			f(n.Rate)
			f(n.AmpUS)
		}
		field("blocks")
		for _, blk := range wl.Blocks {
			f(blk.X0)
			f(blk.Y0)
			f(blk.X1)
			f(blk.Y1)
			f(blk.Mul)
		}
	} else {
		b = append(b, "none"...)
	}
	end()

	// machine: the LogGP parameters after overrides. An override is a
	// machine perturbation, so it lands here rather than in a component of
	// its own; its display name is not part of the identity.
	p := r.mach.Params
	field("G")
	f(p.G)
	field("L")
	f(p.L)
	field("o")
	f(p.O)
	field("oh")
	f(p.H)
	field("Gcopy")
	f(p.Gcopy)
	field("Gdma")
	f(p.Gdma)
	field("ochip")
	f(p.Ochip)
	field("ocopy")
	f(p.Ocopy)
	end()

	// node: the on-node organisation.
	field("cores")
	i(r.mach.CoresPerNode)
	field("cx_cy")
	i(r.mach.Cx)
	i(r.mach.Cy)
	field("bus_groups")
	i(r.mach.BusGroups)
	end()

	// interconnect: the inter-node fabric.
	ic := r.mach.Interconnect
	field("kind")
	i(int(ic.Kind))
	field("dims")
	for _, d := range ic.Dims {
		i(d)
	}
	field("leaf_spine")
	i(ic.LeafRadix)
	i(ic.Spine)
	field("linkG")
	f(ic.LinkG)
	field("hopL")
	f(ic.HopL)
	end()

	// placement: rank count, decomposition shape, and the boundary message
	// sizes evaluated at this decomposition — the exact values the schedule
	// uses, capturing the app's sizing functions without hashing code.
	// They are placement-derived, so a pure rank-count delta stays one
	// component.
	field("p")
	i(r.P)
	field("dec")
	i(r.dec.N)
	i(r.dec.M)
	field("ew_bytes")
	if app.EWBytes != nil {
		i(app.EWBytes(r.dec, app.Htile))
	} else {
		i(-1)
	}
	field("ns_bytes")
	if app.NSBytes != nil {
		i(app.NSBytes(r.dec, app.Htile))
	} else {
		i(-1)
	}
	end()

	// mode: the execution-mode bits that change output bytes.
	bit := func(label string, on bool) {
		field(label)
		if on {
			i(1)
		} else {
			i(0)
		}
	}
	bit("hist", mode.Hist)
	bit("canon", mode.Canon)
	end()
	return b
}
