package simmpi

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/simnet"
)

// TestPartitionDealsContiguousNodeBlocks checks the shard layout for every
// shard count up to the node count: shards own whole nodes, every shard
// owns at least one, and walking the node ids in order meets
// min(k·blocksPerShard, nodes) contiguous blocks dealt to shards
// 0, 1, …, k−1, 0, 1, … in turn.
func TestPartitionDealsContiguousNodeBlocks(t *testing.T) {
	mach := machine.XT4() // two ranks per node
	for _, ranks := range []int{2, 5, 14, 64, 129, 512} {
		s := New(simnet.NewTopology(mach.Params, ranks, simnet.LinearPlacement(mach)))
		nodes := s.nodeCount()
		for k := 1; k <= nodes; k++ {
			var p parRun
			s.partition(&p, k)
			nodeShard := make([]int32, nodes)
			for r, sh := range p.rankShard {
				n := s.topo.NodeOf(r)
				if r > 0 && s.topo.NodeOf(r-1) == n && p.rankShard[r-1] != sh {
					t.Fatalf("ranks=%d k=%d: node %d split across shards %d and %d", ranks, k, n, p.rankShard[r-1], sh)
				}
				nodeShard[n] = sh
			}
			owned := make([]int, k)
			blocks := 0
			for n, sh := range nodeShard {
				owned[sh]++
				if n > 0 && sh == nodeShard[n-1] {
					continue
				}
				if k > 1 && int(sh) != blocks%k {
					t.Fatalf("ranks=%d k=%d: block %d (from node %d) went to shard %d, want %d", ranks, k, blocks, n, sh, blocks%k)
				}
				blocks++
			}
			for sh, n := range owned {
				if n == 0 {
					t.Fatalf("ranks=%d k=%d: shard %d owns no node", ranks, k, sh)
				}
			}
			if want := min(k*blocksPerShard, nodes); k > 1 && blocks != want {
				t.Errorf("ranks=%d k=%d: %d contiguous blocks over %d nodes, want %d", ranks, k, blocks, nodes, want)
			}
		}
	}
}
