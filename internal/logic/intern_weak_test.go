//go:build go1.24

package logic

import (
	"runtime"
	"testing"
	"time"
)

// bucketEntries counts the formula table's entries, dead or alive, in the
// buckets of the hashes hs.
func bucketEntries(hs map[uint64]bool) int {
	n := 0
	for h := range hs {
		s := &internFormulas[h%internShards]
		s.mu.Lock()
		n += len(s.buckets[h])
		s.mu.Unlock()
	}
	return n
}

// TestInternDropsCollected interns formulas nothing else references and
// requires the table to forget them once the GC has collected them, rather
// than keep a stub per formula until some later insert sweeps its shard.
// Only the buckets of this test's formulas are counted, so other tests'
// garbage and its cleanups move neither count.
func TestInternDropsCollected(t *testing.T) {
	const n = 10000
	fs := make([]*IFormula, n)
	hs := make(map[uint64]bool, n)
	for i := range fs {
		fs[i] = Intern(LtF(V("intern_drop"), I(int64(i))))
		hs[fs[i].hash] = true
	}
	if got := bucketEntries(hs); got < n {
		t.Fatalf("%d live interned formulas hold %d table entries", n, got)
	}
	runtime.KeepAlive(fs)
	clear(fs)
	left := 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // cleanups run on their own goroutine
		if left = bucketEntries(hs); left < n/100 {
			return
		}
	}
	t.Fatalf("%d of %d collected formulas still hold table entries", left, n)
}
