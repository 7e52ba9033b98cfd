// Package logp implements the LogGP communication sub-models of paper
// Section 3: MPI send, receive and end-to-end ("total") communication time
// for off-node (Table 1(a), equations (1)–(4)) and on-chip (Table 1(b),
// equations (5)–(8)) transfers, and the MPI all-reduce model (equation (9)).
//
// All times are in microseconds and message sizes in bytes, matching the
// paper's Table 2 units. The models switch between the eager protocol and
// the rendezvous (handshake) protocol at a threshold of 1024 bytes.
package logp

import (
	"fmt"
	"math"
)

// EagerThreshold is the message size in bytes above which the MPI
// implementation performs a rendezvous handshake before transferring data
// (paper Section 3.1: "For all messages larger than 1024 bytes a handshake
// is performed").
const EagerThreshold = 1024

// Params holds the LogGP parameters of a platform, both off-node and
// on-chip, exactly as derived in paper Table 2. The gap-per-message
// parameter g is zero on modern architectures (Section 3): a node can
// transmit a new message as soon as the previous transmission completes.
type Params struct {
	Name string

	// Off-node parameters (Table 2, left column).
	G float64 // per-byte transmission cost, µs/byte
	L float64 // end-to-end latency, µs
	O float64 // send/receive processing overhead o = oinit + oc2NIC, µs
	H float64 // handshake overhead oh (assumed negligible on the XT4)

	// On-chip parameters (Table 2, right column).
	Gcopy float64 // per-byte cost of the two-copy path (≤1 KB), µs/byte
	Gdma  float64 // per-byte cost of the DMA path (>1 KB), µs/byte
	Ochip float64 // on-chip o = ocopy + odma, µs
	Ocopy float64 // processing overhead around the copies, µs
}

// XT4 returns the Cray XT4 parameters of paper Table 2.
func XT4() Params {
	return Params{
		Name:  "Cray XT4",
		G:     0.0004,
		L:     0.305,
		O:     3.92,
		H:     0,
		Gcopy: 0.000789,
		Gdma:  0.000072,
		Ochip: 3.80,
		Ocopy: 1.98,
	}
}

// SP2 returns the IBM SP/2 off-node parameters quoted in paper Section 3.1
// (G = 0.07 µs/byte, L = 23 µs, o = 23 µs). The SP/2 has single-core nodes,
// so the on-chip parameters mirror the off-node values; they are never
// exercised when C = 1.
func SP2() Params {
	return Params{
		Name:  "IBM SP/2",
		G:     0.07,
		L:     23,
		O:     23,
		H:     0,
		Gcopy: 0.07,
		Gdma:  0.07,
		Ochip: 23,
		Ocopy: 23,
	}
}

// Odma returns the DMA setup component of the on-chip overhead,
// odma = o − ocopy (paper Section 3.2: o = ocopy + odma).
func (p Params) Odma() float64 { return p.Ochip - p.Ocopy }

// Validate reports an error if any parameter is negative or the on-chip
// overhead decomposition is inconsistent.
func (p Params) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"G", p.G}, {"L", p.L}, {"o", p.O}, {"oh", p.H},
		{"Gcopy", p.Gcopy}, {"Gdma", p.Gdma}, {"o(onchip)", p.Ochip}, {"ocopy", p.Ocopy},
	} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("logp: parameter %s = %v out of range", v.name, v.val)
		}
	}
	if p.Ocopy > p.Ochip {
		return fmt.Errorf("logp: ocopy (%v) exceeds on-chip o (%v)", p.Ocopy, p.Ochip)
	}
	return nil
}

// Handshake returns h = L + oh + L + oh, the rendezvous round-trip time
// (paper Table 1(a)).
func (p Params) Handshake() float64 { return 2*p.L + 2*p.H }

// --- Off-node model: Table 1(a) ---

// TotalCommOffNode returns the end-to-end time to communicate a message of
// the given size between two cores on different nodes:
//
//	≤1KB:  o + size×G + L + o                      (eq 1)
//	>1KB:  o + h + o + size×G + L + o              (eq 2)
func (p Params) TotalCommOffNode(size int) float64 {
	if size <= EagerThreshold {
		return p.O + float64(size)*p.G + p.L + p.O
	}
	return p.O + p.Handshake() + p.O + float64(size)*p.G + p.L + p.O
}

// SendOffNode returns the time the sending core is busy executing the MPI
// send for an off-node message (eqs 3, 4a).
func (p Params) SendOffNode(size int) float64 {
	if size <= EagerThreshold {
		return p.O
	}
	return p.O + p.Handshake()
}

// ReceiveOffNode returns the time the receiving core is busy executing the
// MPI receive for an off-node message (eqs 3, 4b). For rendezvous messages
// the receive includes the reply latency and the data transfer:
// L + o + size×G + L + o.
func (p Params) ReceiveOffNode(size int) float64 {
	if size <= EagerThreshold {
		return p.O
	}
	return p.L + p.O + float64(size)*p.G + p.L + p.O
}

// --- On-chip model: Table 1(b) ---

// TotalCommOnChip returns the end-to-end time to communicate a message
// between two cores of the same chip:
//
//	≤1KB:  ocopy + size×Gcopy + ocopy              (eq 5)
//	>1KB:  o + size×Gdma + ocopy                   (eq 6)
func (p Params) TotalCommOnChip(size int) float64 {
	if size <= EagerThreshold {
		return p.Ocopy + float64(size)*p.Gcopy + p.Ocopy
	}
	return p.Ochip + float64(size)*p.Gdma + p.Ocopy
}

// SendOnChip returns the sender-side busy time for an on-chip message
// (eqs 7, 8a).
func (p Params) SendOnChip(size int) float64 {
	if size <= EagerThreshold {
		return p.Ocopy
	}
	return p.Ochip // ocopy + odma
}

// ReceiveOnChip returns the receiver-side busy time for an on-chip message
// (eqs 7, 8b): size×Gdma + ocopy for large messages.
func (p Params) ReceiveOnChip(size int) float64 {
	if size <= EagerThreshold {
		return p.Ocopy
	}
	return float64(size)*p.Gdma + p.Ocopy
}

// Path selects between the off-node and on-chip variants of the three
// communication sub-models.
type Path int

// Communication paths.
const (
	OffNode Path = iota // between cores on different nodes
	OnChip              // between cores on the same chip/node
)

// TotalComm dispatches to TotalCommOffNode or TotalCommOnChip.
func (p Params) TotalComm(path Path, size int) float64 {
	if path == OnChip {
		return p.TotalCommOnChip(size)
	}
	return p.TotalCommOffNode(size)
}

// Send dispatches to SendOffNode or SendOnChip.
func (p Params) Send(path Path, size int) float64 {
	if path == OnChip {
		return p.SendOnChip(size)
	}
	return p.SendOffNode(size)
}

// Receive dispatches to ReceiveOffNode or ReceiveOnChip.
func (p Params) Receive(path Path, size int) float64 {
	if path == OnChip {
		return p.ReceiveOnChip(size)
	}
	return p.ReceiveOffNode(size)
}

// AllReduce returns the execution time of an MPI all-reduce over P total
// cores with C cores per node, exchanging messages of the given size
// (paper equation (9)):
//
//	T = [log2(P) − log2(C)] × C × TotalComm_offchip
//	  + log2(C) × C × TotalComm_onchip
//
// In the special case C = 1 this reduces to log2(P) × TotalComm.
func (p Params) AllReduce(P, C, size int) float64 {
	if P <= 0 || C <= 0 {
		panic(fmt.Sprintf("logp: invalid all-reduce configuration P=%d C=%d", P, C))
	}
	if C > P {
		C = P
	}
	logP := math.Log2(float64(P))
	logC := math.Log2(float64(C))
	off := (logP - logC) * float64(C) * p.TotalCommOffNode(size)
	on := logC * float64(C) * p.TotalCommOnChip(size)
	return off + on
}

// AllReduceDouble returns the all-reduce time for a single 8-byte double,
// the common reduction payload in Sweep3D and Chimaera convergence tests.
func (p Params) AllReduceDouble(P, C int) float64 { return p.AllReduce(P, C, 8) }
