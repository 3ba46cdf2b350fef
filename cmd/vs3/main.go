// Command vs3 verifies a program against invariant templates over predicate
// abstraction, reproducing the tool of Srivastava & Gulwani (PLDI 2009).
//
// Usage:
//
//	vs3 [-method lfp|gfp|cfp|all] [-pre] [-stats] file.vs3
//
// The input file contains a program followed by template and predicate
// directives (see examples/quickstart/arrayinit.vs3):
//
//	program ArrayInit(array A, n) {
//	  i := 0;
//	  while loop (i < n) { A[i] := 0; i := i + 1; }
//	  assert(forall j. (0 <= j && j < n) => A[j] = 0);
//	}
//
//	template loop: forall j. ?v => A[j] = 0;
//	predicates v: j < 0, j <= 0, j > 0, j >= 0, j < i, j <= i, j > i, j >= i;
//
// With -pre, the entry template's unknowns are solved for maximally-weak
// preconditions instead (§6 of the paper).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
)

func main() {
	method := flag.String("method", "all", "algorithm: lfp, gfp, cfp, or all")
	pre := flag.Bool("pre", false, "infer maximally-weak preconditions for the entry template")
	showStats := flag.Bool("stats", false, "print SMT/search statistics after solving")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vs3 [-method lfp|gfp|cfp|all] [-pre] [-stats] file.vs3\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *method, *pre, *showStats); err != nil {
		fmt.Fprintln(os.Stderr, "vs3:", err)
		os.Exit(1)
	}
}

// run solves the spec file at path and prints the results to w; with
// showStats it adds the Figure 4–9 histogram summary and every engine
// counter of the stats registry.
func run(w io.Writer, path, method string, pre, showStats bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sf, err := lang.ParseSpecFile(string(src))
	if err != nil {
		return err
	}
	prob := &spec.Problem{
		Prog:      sf.Program,
		Templates: sf.Templates,
		Q:         template.Domain(sf.Predicates),
	}
	if err := prob.Validate(); err != nil {
		return err
	}
	collector := stats.New()
	v := core.New(core.Config{Stats: collector})

	if pre {
		pres, enum, err := v.InferPreconditions(prob)
		if err != nil {
			return err
		}
		if len(pres) == 0 {
			fmt.Fprintln(w, "no precondition found in the template/predicate space")
		}
		for i, p := range pres {
			fmt.Fprintf(w, "precondition %d: %s\n", i+1, p.Pre)
		}
		if enum.Truncated {
			fmt.Fprintln(w, "note: enumeration truncated (candidate/step bound hit); the set may be incomplete")
		}
		if showStats {
			writeStats(w, collector, v)
		}
		return nil
	}

	methods, err := parseMethods(method)
	if err != nil {
		return err
	}
	for _, m := range methods {
		out, err := v.Verify(prob, m)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.FormatOutcome(out))
	}
	if showStats {
		writeStats(w, collector, v)
	}
	return nil
}

func writeStats(w io.Writer, c *stats.Collector, v *core.Verifier) {
	c.WriteSummary(w)
	fmt.Fprintln(w, "Counters:")
	counters := v.Engine().S.Counters().Load()
	counters.WriteText(w)
}

func parseMethods(s string) ([]core.Method, error) {
	switch strings.ToLower(s) {
	case "lfp":
		return []core.Method{core.LFP}, nil
	case "gfp":
		return []core.Method{core.GFP}, nil
	case "cfp":
		return []core.Method{core.CFP}, nil
	case "all":
		return core.Methods, nil
	}
	return nil, fmt.Errorf("unknown method %q (want lfp, gfp, cfp, or all)", s)
}
