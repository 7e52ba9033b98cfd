package logp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestXT4Values(t *testing.T) {
	p := XT4()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 2 constants.
	if p.G != 0.0004 || p.L != 0.305 || p.O != 3.92 {
		t.Errorf("off-node params = %+v", p)
	}
	if p.Gcopy != 0.000789 || p.Gdma != 0.000072 || p.Ochip != 3.80 || p.Ocopy != 1.98 {
		t.Errorf("on-chip params = %+v", p)
	}
	if got := p.Odma(); !almostEq(got, 3.80-1.98) {
		t.Errorf("Odma = %v", got)
	}
}

func TestSP2MuchSlowerThanXT4(t *testing.T) {
	sp2, xt4 := SP2(), XT4()
	if err := sp2.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper notes the XT4 parameters are one to two orders of
	// magnitude lower than the SP/2's.
	if sp2.L/xt4.L < 10 || sp2.O/xt4.O < 5 || sp2.G/xt4.G < 10 {
		t.Errorf("SP/2 should be much slower: %+v vs %+v", sp2, xt4)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := XT4()
	p.L = -1
	if err := p.Validate(); err == nil {
		t.Error("negative L accepted")
	}
	p = XT4()
	p.Ocopy = p.Ochip + 1
	if err := p.Validate(); err == nil {
		t.Error("ocopy > o accepted")
	}
	p = XT4()
	p.G = math.NaN()
	if err := p.Validate(); err == nil {
		t.Error("NaN G accepted")
	}
}

func TestOffNodeEquations(t *testing.T) {
	p := XT4()
	// Equation (1): o + size×G + L + o.
	if got, want := p.TotalCommOffNode(512), p.O+512*p.G+p.L+p.O; !almostEq(got, want) {
		t.Errorf("eq(1) = %v, want %v", got, want)
	}
	// Equation (2): o + h + o + size×G + L + o, h = 2L.
	want := p.O + 2*p.L + p.O + 4096*p.G + p.L + p.O
	if got := p.TotalCommOffNode(4096); !almostEq(got, want) {
		t.Errorf("eq(2) = %v, want %v", got, want)
	}
	// Equations (3), (4a), (4b).
	if got := p.SendOffNode(100); !almostEq(got, p.O) {
		t.Errorf("eq(3) send = %v", got)
	}
	if got := p.ReceiveOffNode(100); !almostEq(got, p.O) {
		t.Errorf("eq(3) recv = %v", got)
	}
	if got := p.SendOffNode(2048); !almostEq(got, p.O+2*p.L) {
		t.Errorf("eq(4a) = %v", got)
	}
	if got, want := p.ReceiveOffNode(2048), p.L+p.O+2048*p.G+p.L+p.O; !almostEq(got, want) {
		t.Errorf("eq(4b) = %v, want %v", got, want)
	}
}

func TestOnChipEquations(t *testing.T) {
	p := XT4()
	// Equation (5): ocopy + size×Gcopy + ocopy.
	if got, want := p.TotalCommOnChip(1000), p.Ocopy+1000*p.Gcopy+p.Ocopy; !almostEq(got, want) {
		t.Errorf("eq(5) = %v, want %v", got, want)
	}
	// Equation (6): o + size×Gdma + ocopy.
	if got, want := p.TotalCommOnChip(8192), p.Ochip+8192*p.Gdma+p.Ocopy; !almostEq(got, want) {
		t.Errorf("eq(6) = %v, want %v", got, want)
	}
	// Equations (7), (8a), (8b).
	if got := p.SendOnChip(64); !almostEq(got, p.Ocopy) {
		t.Errorf("eq(7) = %v", got)
	}
	if got := p.SendOnChip(4096); !almostEq(got, p.Ochip) {
		t.Errorf("eq(8a) = %v", got)
	}
	if got, want := p.ReceiveOnChip(4096), 4096*p.Gdma+p.Ocopy; !almostEq(got, want) {
		t.Errorf("eq(8b) = %v, want %v", got, want)
	}
}

func TestProtocolJumpAtThreshold(t *testing.T) {
	p := XT4()
	// The measured curves jump at 1025 bytes (Figure 3): off-node by the
	// handshake h = 2L, on-chip by the DMA setup.
	jumpOff := p.TotalCommOffNode(1025) - p.TotalCommOffNode(1024)
	if jumpOff < 2*p.L-0.01 {
		t.Errorf("off-node jump = %v, want ≥ h = %v", jumpOff, 2*p.L)
	}
	jumpOn := p.TotalCommOnChip(1025) - p.TotalCommOnChip(1024)
	if jumpOn <= 0 {
		t.Errorf("on-chip jump = %v, want > 0", jumpOn)
	}
}

func TestPathDispatch(t *testing.T) {
	p := XT4()
	for _, size := range []int{1, 1024, 1025, 100000} {
		if p.TotalComm(OffNode, size) != p.TotalCommOffNode(size) {
			t.Errorf("TotalComm(OffNode, %d) mismatch", size)
		}
		if p.TotalComm(OnChip, size) != p.TotalCommOnChip(size) {
			t.Errorf("TotalComm(OnChip, %d) mismatch", size)
		}
		if p.Send(OffNode, size) != p.SendOffNode(size) || p.Send(OnChip, size) != p.SendOnChip(size) {
			t.Errorf("Send dispatch mismatch at %d", size)
		}
		if p.Receive(OffNode, size) != p.ReceiveOffNode(size) || p.Receive(OnChip, size) != p.ReceiveOnChip(size) {
			t.Errorf("Receive dispatch mismatch at %d", size)
		}
	}
}

func TestMonotoneInSizeWithinSegments(t *testing.T) {
	p := XT4()
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			a := r.Intn(1024) + 1
			b := a + r.Intn(1024-a+1)
			if r.Intn(2) == 0 { // large segment
				a += 2000
				b += 4000
			}
			vals[0], vals[1] = reflect.ValueOf(a), reflect.ValueOf(b)
		},
	}
	prop := func(a, b int) bool {
		return p.TotalCommOffNode(a) <= p.TotalCommOffNode(b)+1e-12 &&
			p.TotalCommOnChip(a) <= p.TotalCommOnChip(b)+1e-12
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestAllReduceSingleCoreReducesToLogP(t *testing.T) {
	p := XT4()
	for _, P := range []int{2, 4, 16, 1024} {
		want := math.Log2(float64(P)) * p.TotalCommOffNode(8)
		if got := p.AllReduce(P, 1, 8); !almostEq(got, want) {
			t.Errorf("AllReduce(%d, 1) = %v, want log2(P)×TotalComm = %v", P, got, want)
		}
	}
}

func TestAllReduceEquation9(t *testing.T) {
	p := XT4()
	// Hand-evaluate equation (9) for P=64, C=2.
	off := (math.Log2(64) - 1) * 2 * p.TotalCommOffNode(8)
	on := 1 * 2 * p.TotalCommOnChip(8)
	if got := p.AllReduce(64, 2, 8); !almostEq(got, off+on) {
		t.Errorf("AllReduce(64,2) = %v, want %v", got, off+on)
	}
	if got, want := p.AllReduceDouble(64, 2), p.AllReduce(64, 2, 8); got != want {
		t.Errorf("AllReduceDouble mismatch")
	}
}

func TestAllReduceClampsCoresToP(t *testing.T) {
	p := XT4()
	if got, want := p.AllReduce(2, 8, 8), p.AllReduce(2, 2, 8); !almostEq(got, want) {
		t.Errorf("AllReduce with C>P = %v, want %v", got, want)
	}
}

func TestAllReducePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	XT4().AllReduce(0, 1, 8)
}

func TestAllReduceGrowsWithP(t *testing.T) {
	p := XT4()
	prev := 0.0
	for _, P := range []int{2, 4, 8, 16, 32, 1024, 65536} {
		got := p.AllReduce(P, 2, 8)
		if got <= prev {
			t.Errorf("AllReduce not increasing at P=%d: %v <= %v", P, got, prev)
		}
		prev = got
	}
}

func TestHandshake(t *testing.T) {
	p := XT4()
	if got := p.Handshake(); !almostEq(got, 2*p.L) {
		t.Errorf("Handshake = %v, want 2L (oh=0)", got)
	}
	p.H = 1.5
	if got := p.Handshake(); !almostEq(got, 2*p.L+3) {
		t.Errorf("Handshake with oh = %v", got)
	}
}
