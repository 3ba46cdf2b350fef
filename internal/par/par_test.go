package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 33} {
		const n = 100
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ran := false
	ForEach(0, 4, func(int) { ran = true })
	if ran {
		t.Error("f ran with n=0")
	}
}
