package lang

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// FuzzParseSpecFile feeds arbitrary sources through the spec-file lexer and
// parser, the path every /v1/verify body and every cmd/vs3 input takes. It
// must never panic; a source it accepts must yield a program and non-nil
// directives, and parsing it again must give the same rendering. Seeds in
// testdata/fuzz/FuzzParseSpecFile start from examples/quickstart/arrayinit.vs3.
func FuzzParseSpecFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		sf, err := ParseSpecFile(src)
		if err != nil {
			return
		}
		if sf.Program == nil {
			t.Fatal("accepted spec has no program")
		}
		again, err := ParseSpecFile(src)
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		if got, want := renderSpec(again), renderSpec(sf); got != want {
			t.Fatalf("parse is not deterministic:\n%s\nvs\n%s", got, want)
		}
	})
}

// renderSpec prints a parsed spec file in a canonical order.
func renderSpec(sf *SpecFile) string {
	var b strings.Builder
	b.WriteString(sf.Program.String())
	var cuts []string
	for c := range sf.Templates {
		cuts = append(cuts, c)
	}
	sort.Strings(cuts)
	for _, c := range cuts {
		fmt.Fprintf(&b, "\ntemplate %s: %v", c, sf.Templates[c])
	}
	var us []string
	for u := range sf.Predicates {
		us = append(us, u)
	}
	sort.Strings(us)
	for _, u := range us {
		fmt.Fprintf(&b, "\npredicates %s: %v", u, sf.Predicates[u])
	}
	return b.String()
}
