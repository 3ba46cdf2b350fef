package optimal

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// TestCoreStoreStripesByCore stores the cores of 16 problems whose unknowns
// all have the same name, eight each — twice what one shard holds — and
// requires every one of them kept: the shards are picked by the whole core,
// not by its unknown's name. Storing them all again must add nothing.
func TestCoreStoreStripesByCore(t *testing.T) {
	cs := NewCoreStore()
	var cores [][]coreItem
	for p := 0; p < 16; p++ {
		for k := 0; k < 8; k++ {
			x := logic.V(fmt.Sprintf("x%d", p))
			cores = append(cores, []coreItem{
				{unknown: "v", pred: logic.Intern(logic.LtF(x, logic.I(int64(k))))},
				{unknown: "v", pred: logic.Intern(logic.GtF(x, logic.I(int64(k+1))))},
			})
		}
	}
	if len(cores) <= coreShardCap {
		t.Fatalf("%d cores fit one shard of %d; the test proves nothing", len(cores), coreShardCap)
	}
	for _, c := range cores {
		if cs.add(c) {
			t.Fatalf("storing %d cores over one unknown name evicted one", len(cores))
		}
	}
	for _, c := range cores {
		if inserted, _ := cs.insert(c); inserted {
			t.Fatalf("a duplicate core was stored again: %v", c)
		}
	}
	stored := 0
	for i := range cs.shards {
		stored += len(cs.shards[i].entries)
	}
	if stored != len(cores) || cs.NumEvicted() != 0 {
		t.Fatalf("%d cores stored, %d evicted; want %d and 0", stored, cs.NumEvicted(), len(cores))
	}
}
