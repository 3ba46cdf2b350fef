package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// run is one invocation's state: its inputs, the operation tally, the
// metric values and the in-memory span log.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for traces and profiles
	work     string // scratch directory for stores, removed at exit

	attempted int
	failed    int
	wrong     int // wrong verdicts: any one fails the run

	values map[string]float64
	notes  []string
	calib  []float64 // reference kernel times, ms (see calib.go)

	tr *tracer
}

func newRun(workload string, seed int64, seconds int, trace bool, out, work string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace, out: out, work: work,
		values: map[string]float64{},
		tr:     &tracer{t0: time.Now()},
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// verdict tallies one operation. ok reports that it completed (no timeout,
// abort, shed or transport error); proved and want are its verdict and the
// expected one. A completed operation with the wrong verdict fails the run.
func (r *run) verdict(name string, ok, proved, want bool) {
	r.attempted++
	switch {
	case !ok:
		r.failed++
	case proved != want:
		r.failed++
		r.wrong++
		if r.wrong <= 10 {
			fmt.Fprintf(os.Stderr, "vs3perf: WRONG VERDICT %s: proved=%v, expected %v\n", name, proved, want)
		}
	}
}

// writeTrace writes the span log as JSON lines.
func (r *run) writeTrace() error {
	dir := filepath.Join(r.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.notef("spans written to %s", path)
	return nil
}

// span is one timed call into a layer. Start and End are nanoseconds since
// the run began; Parent is 0 for a root span; spans of one operation share
// Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on; off, every call is a no-op, so
// the untraced measurement runs the same code with no recording.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	next  int64
	spans []span
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// id reserves a span id (0 when off), so children can name a parent that
// is recorded after them.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	return t.next
}

// record stores a span with a reserved id; a zero id is dropped.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent and returns its duration.
func (t *tracer) timed(parent, req int64, name string, fn func()) time.Duration {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(id, parent, req, name, start, end)
	return end.Sub(start)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(math.Max(x, 1e-6))
	}
	return math.Exp(l / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retainedHeapMB forces a collection and returns the bytes of live heap
// objects left, in MB.
func retainedHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memSnap is the slice of runtime.MemStats the per-layer report diffs.
type memSnap struct {
	numGC      uint32
	totalAlloc uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{numGC: m.NumGC, totalAlloc: m.TotalAlloc}
}

// setRuntime reports the garbage collections and allocation per operation
// between two snapshots.
func (r *run) setRuntime(before, after memSnap, ops int) {
	r.set("runtime.gc_cycles", float64(after.numGC-before.numGC))
	if ops > 0 {
		r.set("runtime.alloc_mb_per_op", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/float64(ops))
	}
}
