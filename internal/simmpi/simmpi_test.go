package simmpi

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/logp"
	"repro/internal/machine"
	"repro/internal/simnet"
)

func offNodePair() *simnet.Topology {
	return simnet.NewTopology(logp.XT4(), 2, simnet.SpreadPlacement())
}

func onChipPair() *simnet.Topology {
	return simnet.NewTopology(logp.XT4(), 2, simnet.LinearPlacement(machine.XT4()))
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// runPair runs a single send on rank 0 and a single receive on rank 1 with
// the receive pre-posted, returning rank finish times.
func runPair(t *testing.T, topo *simnet.Topology, bytes int) Result {
	t.Helper()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, bytes)))
	s.SetProgram(1, Ops(Recv(0)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEagerOffNodeMatchesEquation1(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{1, 64, 1024} {
		res := runPair(t, offNodePair(), bytes)
		// Receiver finishes at TotalComm = o + size×G + L + o (eq 1).
		if want := p.TotalCommOffNode(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want %v", bytes, res.RankFinish[1], want)
		}
		// Eager sender unblocks after o.
		if !almostEq(res.RankFinish[0], p.O) {
			t.Errorf("bytes=%d: send finish = %v, want o = %v", bytes, res.RankFinish[0], p.O)
		}
	}
}

func TestRendezvousOffNodeMatchesEquation2(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{1025, 4096, 12288} {
		res := runPair(t, offNodePair(), bytes)
		// Pre-posted receive: TotalComm = o + h + o + size×G + L + o (eq 2).
		if want := p.TotalCommOffNode(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want %v", bytes, res.RankFinish[1], want)
		}
		// Sender blocks for ≈ o + h + o (handshake + injection).
		if want := p.O + p.Handshake() + p.O; !almostEq(res.RankFinish[0], want) {
			t.Errorf("bytes=%d: send finish = %v, want %v", bytes, res.RankFinish[0], want)
		}
	}
}

func TestEagerOnChipMatchesEquation5(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{16, 1000} {
		res := runPair(t, onChipPair(), bytes)
		if want := p.TotalCommOnChip(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want eq(5) %v", bytes, res.RankFinish[1], want)
		}
		if !almostEq(res.RankFinish[0], p.Ocopy) {
			t.Errorf("bytes=%d: send finish = %v, want ocopy", bytes, res.RankFinish[0])
		}
	}
}

func TestLargeOnChipMatchesEquation6(t *testing.T) {
	p := logp.XT4()
	for _, bytes := range []int{2048, 8192} {
		res := runPair(t, onChipPair(), bytes)
		if want := p.TotalCommOnChip(bytes); !almostEq(res.RankFinish[1], want) {
			t.Errorf("bytes=%d: recv finish = %v, want eq(6) %v", bytes, res.RankFinish[1], want)
		}
		if !almostEq(res.RankFinish[0], p.Ochip) {
			t.Errorf("bytes=%d: send finish = %v, want o = ocopy+odma", bytes, res.RankFinish[0])
		}
	}
}

func TestLateRecvDelaysCompletion(t *testing.T) {
	p := logp.XT4()
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, 512)))
	const busy = 1000.0
	s.SetProgram(1, Ops(Compute(busy), Recv(0)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Message arrived long before the receive was posted: completion is
	// post time + o.
	if want := busy + p.O; !almostEq(res.RankFinish[1], want) {
		t.Errorf("late recv finish = %v, want %v", res.RankFinish[1], want)
	}
}

func TestLateRecvRendezvousHoldsSender(t *testing.T) {
	p := logp.XT4()
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, 4096)))
	const busy = 1000.0
	s.SetProgram(1, Ops(Compute(busy), Recv(0)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The rendezvous sender cannot inject until the receive is posted.
	if res.RankFinish[0] < busy {
		t.Errorf("rendezvous sender finished at %v before recv posted at %v", res.RankFinish[0], busy)
	}
	// Receiver: CTS at busy, then L + o + size×G + L + o (eq 4b).
	want := busy + p.L + p.O + 4096*p.G + p.L + p.O
	if !almostEq(res.RankFinish[1], want) {
		t.Errorf("recv finish = %v, want %v", res.RankFinish[1], want)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two sends with different sizes must match receives in order.
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, 100), Send(1, 200)))
	s.SetProgram(1, Ops(Recv(0), Recv(0)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sends != 2 || res.Recvs != 2 || res.BytesSent != 300 {
		t.Errorf("traffic counters = %+v", res)
	}
}

// TestQueuedMessagesCompleteInOrder: three eager messages and then a
// rendezvous message wait in one channel's queue until the receiver, busy
// computing, posts its receives. Each receive takes the queue head, so
// the eager ones complete o after each post (Table 1(a) eq (3)) and the
// fourth post starts the rendezvous handshake (eq (4b)). Serially the
// sender's channel holds the queue; at two shards the receiver's in-port
// channel does, fed by the barrier's proxies.
func TestQueuedMessagesCompleteInOrder(t *testing.T) {
	p := logp.XT4()
	p.H = 1.5 // a nonzero handshake overhead, so its two terms show
	const busy = 1000.0
	sizes := []int{100, 200, 300, 4096}
	post4 := busy + 3*p.O
	inject := post4 + p.H + p.L + p.H + p.O // CTS back at the sender, then data
	wantSend := inject
	wantRecv := inject + 4096*p.G + p.L + p.O
	for _, shards := range []int{1, 2} {
		s, err := NewWithOptions(simnet.NewTopology(p, 2, simnet.SpreadPlacement()), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		send := []Op{}
		recv := []Op{Compute(busy)}
		for _, b := range sizes {
			send = append(send, Send(1, b))
			recv = append(recv, Recv(0))
		}
		s.SetProgram(0, Ops(send...))
		s.SetProgram(1, Ops(recv...))
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k, _, _ := s.ParallelStats(); k != shards {
			t.Fatalf("shards=%d: the run used %d shards", shards, k)
		}
		if res.Sends != 4 || res.Recvs != 4 || res.BytesSent != 4696 {
			t.Errorf("shards=%d: traffic counters = %d/%d/%d, want 4/4/4696", shards, res.Sends, res.Recvs, res.BytesSent)
		}
		if !almostEq(res.RankFinish[0], wantSend) {
			t.Errorf("shards=%d: sender finish = %v, want %v", shards, res.RankFinish[0], wantSend)
		}
		if !almostEq(res.RankFinish[1], wantRecv) || res.Time != res.RankFinish[1] {
			t.Errorf("shards=%d: receiver finish = %v, time = %v, want %v", shards, res.RankFinish[1], res.Time, wantRecv)
		}
	}
}

func TestManyRoundTripsAccumulate(t *testing.T) {
	p := logp.XT4()
	topo := offNodePair()
	s := New(topo)
	const rounds = 10
	var o0, o1 []Op
	for i := 0; i < rounds; i++ {
		o0 = append(o0, Send(1, 512), Recv(1))
		o1 = append(o1, Recv(0), Send(0, 512))
	}
	s.SetProgram(0, Ops(o0...))
	s.SetProgram(1, Ops(o1...))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * rounds * p.TotalCommOffNode(512)
	if !almostEq(res.Time, want) {
		t.Errorf("round trips = %v, want %v", res.Time, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Recv(1)))
	s.SetProgram(1, Ops(Recv(0)))
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestRendezvousMutualSendDeadlocks(t *testing.T) {
	// The classic MPI head-to-head bug: two blocking rendezvous sends, each
	// waiting for the peer to post a receive that is queued behind the
	// send. Eager messages slip through (see the next test); above the
	// threshold this deadlocks, and the simulator must report it.
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, 4096), Recv(1)))
	s.SetProgram(1, Ops(Send(0, 4096), Recv(0)))
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected rendezvous deadlock, got %v", err)
	}
}

func TestEagerSendsDoNotDeadlock(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(1, 64), Recv(1)))
	s.SetProgram(1, Ops(Send(0, 64), Recv(0)))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeAccounting(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Compute(5), Compute(7)))
	s.SetProgram(1, Ops(Compute(1)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeTime[0] != 12 || res.ComputeTime[1] != 1 {
		t.Errorf("compute = %v", res.ComputeTime)
	}
	if res.Time != 12 {
		t.Errorf("Time = %v", res.Time)
	}
}

func TestEmptyProgramsFinishAtZero(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 0 {
		t.Errorf("Time = %v", res.Time)
	}
}

func TestAllReduceSingleCorePerNodeMatchesEquation9(t *testing.T) {
	// With one core per node and a power-of-two rank count, recursive
	// doubling costs exactly log2(P) × TotalComm, which is equation (9)
	// with C = 1.
	p := logp.XT4()
	for _, P := range []int{2, 4, 8, 16, 64} {
		topo := simnet.NewTopology(p, P, simnet.SpreadPlacement())
		s := New(topo)
		for r := 0; r < P; r++ {
			s.SetProgram(r, Ops(AllReduce(8)))
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := p.AllReduce(P, 1, 8)
		if !almostEq(res.Time, want) {
			t.Errorf("P=%d: allreduce = %v, want %v", P, res.Time, want)
		}
	}
}

func TestAllReduceNonPowerOfTwo(t *testing.T) {
	p := logp.XT4()
	topo := simnet.NewTopology(p, 6, simnet.SpreadPlacement())
	s := New(topo)
	for r := 0; r < 6; r++ {
		s.SetProgram(r, Ops(AllReduce(8)))
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Fold + 2 rounds + unfold: between 3 and 4 exchanges on the critical path.
	lo := 3 * p.TotalCommOffNode(8)
	hi := 4.5 * p.TotalCommOffNode(8)
	if res.Time < lo || res.Time > hi {
		t.Errorf("allreduce(6) = %v, want in [%v, %v]", res.Time, lo, hi)
	}
}

func TestAllReduceMismatchedSizesPanics(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(AllReduce(8)))
	s.SetProgram(1, Ops(AllReduce(16)))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched all-reduce sizes")
		}
	}()
	_, _ = s.Run()
}

func TestSendToSelfPanics(t *testing.T) {
	topo := offNodePair()
	s := New(topo)
	s.SetProgram(0, Ops(Send(0, 8)))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_, _ = s.Run()
}

func TestBusContentionEmergesOffNode(t *testing.T) {
	// Two cores of one node send large messages off-node simultaneously:
	// the second DMA queues behind the first on the shared bus, so the
	// later receiver finishes strictly later than the Table 1 time.
	p := logp.XT4()
	mach := machine.XT4()
	topo := simnet.NewTopology(p, 4, simnet.LinearPlacement(mach)) // (0,1) node A, (2,3) node B
	s := New(topo)
	s.SetProgram(0, Ops(Send(2, 8192)))
	s.SetProgram(1, Ops(Send(3, 8192)))
	s.SetProgram(2, Ops(Recv(0)))
	s.SetProgram(3, Ops(Recv(1)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	nominal := p.TotalCommOffNode(8192)
	slower := math.Max(res.RankFinish[2], res.RankFinish[3])
	if slower <= nominal {
		t.Errorf("no contention visible: %v <= %v", slower, nominal)
	}
	if res.BusQueued == 0 || res.BusWait <= 0 {
		t.Errorf("bus stats show no queueing: %+v", res)
	}
	// The paper's interference bound: at most I extra per DMA.
	maxExtra := 2 * topo.BusOccupancy(8192)
	if slower > nominal+maxExtra+1e-9 {
		t.Errorf("contention %v exceeds bound %v", slower-nominal, nominal+maxExtra)
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() *Sim {
		topo := simnet.NewTopology(logp.XT4(), 4, simnet.LinearPlacement(machine.XT4()))
		s := New(topo)
		s.SetProgram(0, Ops(Send(2, 4096), Recv(3), AllReduce(8)))
		s.SetProgram(1, Ops(Send(3, 100), Recv(2), AllReduce(8)))
		s.SetProgram(2, Ops(Recv(0), Send(1, 2000), AllReduce(8)))
		s.SetProgram(3, Ops(Recv(1), Send(0, 50), AllReduce(8)))
		return s
	}
	r1, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Events != r2.Events {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", r1.Time, r1.Events, r2.Time, r2.Events)
	}
}

// TestRecordSizes pins the sizes of the simulator's hot records on 64-bit
// platforms, so a field more in either fails by name, before it shows in
// TestLiveBytesPerRank.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(rankState{}); got != 80 {
		t.Errorf("rankState is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(message{}); got != 48 {
		t.Errorf("message is %d bytes, want 48", got)
	}
}
