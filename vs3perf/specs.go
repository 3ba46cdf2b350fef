package main

import (
	"fmt"
	"math/rand"

	"repro/internal/load"
)

// request is one fleet request with its expected verdict.
type request struct {
	name   string
	spec   string
	method string
	want   bool
	client int // the closed-loop client that sends it
}

// freshSpecs returns n distinct ArrayInit-shaped requests drawn from the
// seed and salt. Each fills its array with a constant of its own and adds a
// junk predicate of its own to the vocabulary, so no two share a problem
// key, a verification condition or a solver cache entry.
//
// Request i is sent by client i%fleetClients, and the draw skips specs until
// owner (the router's ring placement) puts the request on backend
// i%fleetClients: each client then drives one backend, and each backend
// serves exactly n/fleetClients requests. With placement left to chance the
// split and the queueing between the two clients changed from seed to seed,
// and with them the run's cost by up to 15%.
//
// Every fourth request of each client uses GFP and the rest LFP: on these
// specs an LFP run
// costs about five GFP runs, and a fixed mix keeps the median inside the
// LFP group rather than on the boundary between the two, where it would
// swing with the share of each.
//
// Every one must be proved: the loop writes c to A[0..i) and the vocabulary
// keeps j >= 0 and j < i, so ∀j: (0 <= j ∧ j < i) ⇒ A[j] = c is an
// inductive invariant of the template that implies the assertion. The junk
// predicate only enlarges the lattice.
func freshSpecs(seed, salt int64, n int, owner func(spec string) int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + salt))
	arrays := []string{"A", "B", "C", "D"}
	seen := map[string]bool{}
	var out []request
	for len(out) < n {
		c := 100_000 + rng.Intn(900_000)
		a := 100 + rng.Intn(900)
		arr := arrays[rng.Intn(len(arrays))]
		src := fmt.Sprintf(`
program Fill(array %[1]s, n) {
  i := 0;
  while loop (i < n) {
    %[1]s[i] := %[2]d;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => %[1]s[j] = %[2]d);
}
template loop: forall j. ?v => %[1]s[j] = %[2]d;
predicates v: j < 0, j <= 0, j > 0, j >= 0, j < i, j <= i, j > i, j >= i, j < n, j <= n, j > n, j >= n, j + %[3]d < n + %[4]d;
`, arr, c, a, a+13)
		client := len(out) % fleetClients
		if seen[src] || owner(src) != client {
			continue
		}
		seen[src] = true
		method := "lfp"
		if len(out)/fleetClients%4 == 3 {
			method = "gfp"
		}
		out = append(out, request{name: fmt.Sprintf("fill-%d/%s", c, method), spec: src, method: method, want: true, client: client})
	}
	return out
}

// corpusRequests returns the load.DefaultCorpus() items with their
// hand-written verdicts from corpusExpect.
func corpusRequests() ([]request, error) {
	var out []request
	for _, it := range load.DefaultCorpus() {
		want, ok := corpusExpect[it.Name]
		if !ok {
			return nil, fmt.Errorf("no expected verdict for corpus item %s", it.Name)
		}
		out = append(out, request{name: it.Name, spec: it.Spec, method: it.Method, want: want, client: len(out) % fleetClients})
	}
	return out, nil
}

// replayRequests draws n requests uniformly from the corpus, alternating
// between the clients.
func replayRequests(corpus []request, seed, salt int64, n int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + salt))
	out := make([]request, n)
	for i := range out {
		out[i] = corpus[rng.Intn(len(corpus))]
		out[i].client = i % fleetClients
	}
	return out
}
