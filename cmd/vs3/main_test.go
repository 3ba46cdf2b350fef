package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

const arrayInitSpec = `
program ArrayInit(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = 0);
}

template loop: forall j. ?v => A[j] = 0;
predicates v: j < 0, j >= 0, j < i, j <= i, j < n, j <= n;
`

func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "task.vs3")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunVerify(t *testing.T) {
	path := writeSpec(t, arrayInitSpec)
	if err := run(io.Discard, path, "gfp", false, false); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, path, "lfp", false, true); err != nil {
		t.Fatal(err)
	}
	// -stats prints the histogram summary and every engine counter of the
	// stats registry, one "key value" line each.
	for _, want := range []string{"LFP", "SMT queries: ", "Counters:\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out.String())
		}
	}
	for _, r := range stats.Rows {
		if r.Src == stats.Engine && !strings.Contains(out.String(), "\n  "+r.Key+" ") {
			t.Errorf("-stats output lacks counter %q:\n%s", r.Key, out.String())
		}
	}
}

func TestRunPrecondition(t *testing.T) {
	src := arrayInitSpec + `
template entry: ?pre;
predicates pre: n <= 0, n >= 0;
`
	path := writeSpec(t, src)
	if err := run(io.Discard, path, "gfp", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "/no/such/file.vs3", "gfp", false, false); err == nil {
		t.Error("missing file should error")
	}
	path := writeSpec(t, "program P() { x := }")
	if err := run(io.Discard, path, "gfp", false, false); err == nil {
		t.Error("parse error should propagate")
	}
	good := writeSpec(t, arrayInitSpec)
	if err := run(io.Discard, good, "zzz", false, false); err == nil {
		t.Error("unknown method should error")
	}
}

func TestParseMethods(t *testing.T) {
	if ms, err := parseMethods("all"); err != nil || len(ms) != 3 {
		t.Errorf("all: %v %v", ms, err)
	}
	for _, s := range []string{"lfp", "GFP", "cfp"} {
		if ms, err := parseMethods(s); err != nil || len(ms) != 1 {
			t.Errorf("%s: %v %v", s, ms, err)
		}
	}
	if _, err := parseMethods("x"); err == nil {
		t.Error("bad method accepted")
	}
}
