package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sat.(*Solver).search":           "repro/internal/sat",
		"net/http.(*conn).serve":                        "net/http",
		"runtime.mallocgc":                              "runtime",
		"encoding/json.(*decodeState).object":           "encoding/json",
		"repro/internal/logic.Map[go.shape.*uint8].Get": "repro/internal/logic",
		"main.main": "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeCPUProfile decodes a real runtime/pprof CPU profile and finds
// the function that burned the time.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	calibSink.Store(spin(300 * time.Millisecond))
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, st := range p.stacks {
		total += p.values[i]
		for _, f := range st {
			if strings.HasSuffix(f, ".spin") {
				inSpin += p.values[i]
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin has %d of %d profiled ns", inSpin, total)
	}
	if _, err := decodeProfile(buf.Bytes(), "inuse_space"); err == nil {
		t.Fatal("a CPU profile has no inuse_space values")
	}
}
