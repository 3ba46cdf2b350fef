package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileData is a decoded profile reduced to what the report needs: one
// value of each sample (CPU nanoseconds, or bytes in use) and its stack,
// leaf frame first.
type profileData struct {
	stacks [][]string // function names, leaf first
	values []int64
}

// profile runs fn with spans on and under the CPU profiler, saves the raw
// profile next to the span log and returns it decoded.
func (r *run) profile(fn func()) (*profileData, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	r.tr.setOn(true)
	fn()
	r.tr.setOn(false)
	pprof.StopCPUProfile()
	dir := filepath.Join(r.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.workload, r.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return decodeProfile(buf.Bytes(), "cpu")
}

// cpuLayers maps report names to the package whose self time they count.
var cpuLayers = map[string]string{
	"cpu.sat":      "repro/internal/sat",
	"cpu.smt":      "repro/internal/smt",
	"cpu.lia":      "repro/internal/lia",
	"cpu.logic":    "repro/internal/logic",
	"cpu.optimal":  "repro/internal/optimal",
	"cpu.fixpoint": "repro/internal/fixpoint",
	"cpu.cbi":      "repro/internal/cbi",
	"cpu.template": "repro/internal/template",
	"cpu.store":    "repro/internal/store",
	"cpu.serve":    "repro/internal/serve",
	"cpu.route":    "repro/internal/route",
	"cpu.rpc":      "repro/internal/rpc",
	"cpu.stats":    "repro/internal/stats",
	"cpu.net_http": "net/http",
	"cpu.json":     "encoding/json",
	"cpu.runtime":  "runtime",
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.GC":             true,
}

// setCPU sets each cpu.* metric to its package's share of the profile's
// CPU time, in percent, attributing each sample to its leaf frame's package
// (self time). Samples with a garbage-collector frame anywhere on the stack
// count as cpu.gc instead, wherever their leaf is; that includes the
// collections the benchmark forces before each cell and drive. Samples in
// the benchmark's own reference kernel are left out.
func (r *run) setCPU(p *profileData) {
	var total int64
	self := map[string]int64{}
	var gc int64
	for i, st := range p.stacks {
		isGC, isCalib := false, false
		for _, f := range st {
			isGC = isGC || gcFrames[f]
			isCalib = isCalib || f == "main.calibrate"
		}
		if isCalib {
			continue
		}
		total += p.values[i]
		if isGC {
			gc += p.values[i]
			continue
		}
		if len(st) > 0 {
			self[funcPackage(st[0])] += p.values[i]
		}
	}
	if total == 0 {
		return
	}
	for name, pkg := range cpuLayers {
		r.set(name, float64(self[pkg])/float64(total)*100)
	}
	r.set("cpu.gc", float64(gc)/float64(total)*100)
	r.notef("cpu profile: %d samples, %.2fs of CPU", len(p.stacks), float64(total)/1e9)
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/sat.(*Solver).search" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// heapLayers maps report names to the package whose allocations they count.
var heapLayers = map[string]string{
	"heap.smt_mb":   "repro/internal/smt",
	"heap.sat_mb":   "repro/internal/sat",
	"heap.lia_mb":   "repro/internal/lia",
	"heap.logic_mb": "repro/internal/logic",
	"heap.stats_mb": "repro/internal/stats",
	"heap.store_mb": "repro/internal/store",
	"heap.serve_mb": "repro/internal/serve",
}

// setHeap writes a heap profile of the live heap next to the CPU profile and
// sets each heap.* metric to the MB in use allocated by its package: a
// sample counts for the first frame on its stack outside the runtime.
func (r *run) setHeap() error {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return err
	}
	path := filepath.Join(r.out, "trace", fmt.Sprintf("%s-seed%d.heap.pprof", r.workload, r.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	p, err := decodeProfile(buf.Bytes(), "inuse_space")
	if err != nil {
		return err
	}
	by := map[string]int64{}
	for i, st := range p.stacks {
		for _, f := range st {
			if pkg := funcPackage(f); pkg != "runtime" {
				by[pkg] += p.values[i]
				break
			}
		}
	}
	for name, pkg := range heapLayers {
		r.set(name, float64(by[pkg])/(1<<20))
	}
	return nil
}

// decodeProfile decodes a gzipped profile.proto message as written by
// runtime/pprof. It reads only the fields the report uses: samples
// (location ids, values), locations (lines), functions (names), the string
// table and the sample types, to pick the value named sampleType.
func decodeProfile(gz []byte, sampleType string) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples     []sample
		sampleTypes []uint64 // string index of each value's type
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]uint64{}
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					return appendVarints(&s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range sampleTypes {
		if t < uint64(len(strs)) && strs[t] == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no %s sample type", sampleType)
	}
	p := &profileData{}
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, errors.New("profile: short sample")
		}
		var stack []string
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call out.
			for _, f := range locFuncs[loc] {
				if n := funcNames[f]; n < uint64(len(strs)) {
					stack = append(stack, strs[n])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, int64(s.vals[col]))
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields' values and length-delimited fields' bytes to fn.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
