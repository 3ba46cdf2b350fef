// Package spec ties a program to its verification problem: the invariant
// template attached to each cut-point and the predicate vocabulary of each
// unknown (the paper's inputs, §2.2–2.3). It provides the pieces every
// fixed-point algorithm shares: Paths(Prog), per-path verification
// conditions, and the whole-program check VC(Prog, σ).
package spec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/template"
	"repro/internal/vc"
)

// Problem is one verification task.
type Problem struct {
	// Prog is the program to verify.
	Prog *lang.Program
	// Templates maps cut-point names (loop labels, vc.Entry, vc.Exit) to
	// template formulas. Missing entries default to true. An entry template
	// with unknowns turns the task into precondition inference (§6).
	Templates map[string]logic.Formula
	// Q is the predicate vocabulary of each unknown.
	Q template.Domain

	pathsOnce sync.Once
	paths     []vc.Path

	compileOnce sync.Once
	comp        compiled
}

// compiled holds the problem's per-path and per-template fill skeletons,
// built once on first use. The VC of a path is a pure spine around two
// holes — Imp($pre, WP(δ, $post)) — so each skeleton is compiled into a
// template.Filler and every subsequent VC construction rebuilds only the
// spine. All of it is immutable after the sync.Once, hence safe to share
// across the parallel fixed-point workers and the ψ_Prog encoder.
type compiled struct {
	// vcs[i] fills path i's VC skeleton via the preHole/postHole unknowns.
	vcs []*template.Filler
	// renTo[i] is paths[i].Sigma applied to the target cut's template with
	// unknowns in place (the post formula of every forward VC).
	renTo []logic.Formula
	// tmpl compiles each attached template for solution filling.
	tmpl map[string]*template.Filler
}

// Hole names used by the compiled VC skeletons. Template unknowns come from
// user specs and never start with "@@".
const (
	preHole  = "@@pre"
	postHole = "@@post"
)

func (p *Problem) compiled() *compiled {
	p.compileOnce.Do(func() {
		paths := p.Paths()
		p.comp.vcs = make([]*template.Filler, len(paths))
		p.comp.renTo = make([]logic.Formula, len(paths))
		for i := range paths {
			path := &paths[i]
			skel := path.VC(logic.Unknown{Name: preHole}, logic.Unknown{Name: postHole})
			p.comp.vcs[i] = template.NewFiller(skel)
			p.comp.renTo[i] = path.Sigma.Apply(p.TemplateAt(path.To))
		}
		p.comp.tmpl = make(map[string]*template.Filler, len(p.Templates))
		for cut, t := range p.Templates {
			p.comp.tmpl[cut] = template.NewFiller(t)
		}
	})
	return &p.comp
}

// Paths returns Paths(Prog), computed once. Safe for concurrent use: the
// parallel fixed-point workers and the parallel ψ_Prog encoder all read the
// same slice.
func (p *Problem) Paths() []vc.Path {
	p.pathsOnce.Do(func() { p.paths = vc.PathsOf(p.Prog) })
	return p.paths
}

// TemplateAt returns the template attached to a cut-point (true when none).
func (p *Problem) TemplateAt(cut string) logic.Formula {
	if t, ok := p.Templates[cut]; ok {
		return t
	}
	return logic.True
}

// Unknowns returns every unknown across all templates, sorted.
func (p *Problem) Unknowns() []string {
	set := map[string]bool{}
	for _, t := range p.Templates {
		for _, u := range logic.Unknowns(t) {
			set[u] = true
		}
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Polarities classifies every unknown by its polarity within its own
// template (each unknown belongs to exactly one template).
func (p *Problem) Polarities() (map[string]template.Polarity, error) {
	out := map[string]template.Polarity{}
	for cut, t := range p.Templates {
		pol, err := template.Polarities(t)
		if err != nil {
			return nil, fmt.Errorf("template at %s: %w", cut, err)
		}
		for u, q := range pol {
			if prev, dup := out[u]; dup && prev != q {
				return nil, fmt.Errorf("unknown %s used in multiple templates with conflicting polarity", u)
			}
			out[u] = q
		}
	}
	return out, nil
}

// FillTemplateAt instantiates the template at a cut-point with σ through the
// cut's compiled filler (true when no template is attached). Equivalent to
// sigma.Fill(p.TemplateAt(cut)) but only the unknown-bearing spine of the
// template is rebuilt.
func (p *Problem) FillTemplateAt(cut string, sigma template.Solution) logic.Formula {
	fl, ok := p.compiled().tmpl[cut]
	if !ok {
		return logic.True
	}
	return fl.FillSolution(sigma)
}

// VCAt builds VC(⟨pre, δ_i, post⟩) for path index i through the path's
// compiled skeleton: structurally identical to Paths()[i].VC(pre, post),
// rebuilding only the holes' spine.
func (p *Problem) VCAt(i int, pre, post logic.Formula) logic.Formula {
	return p.compiled().vcs[i].Fill(map[string]logic.Formula{preHole: pre, postHole: post})
}

// PathVC builds VC(⟨τ1σ, δ, τ2σ·σt⟩) for one path with both templates fully
// instantiated by σ. Prefer PathVCAt on hot paths: it reuses the problem's
// compiled skeletons.
func (p *Problem) PathVC(path vc.Path, sigma template.Solution) logic.Formula {
	pre := sigma.Fill(p.TemplateAt(path.From))
	post := path.Sigma.Apply(sigma.Fill(p.TemplateAt(path.To)))
	return path.VC(pre, post)
}

// PathVCAt is PathVC for path index i via the compiled skeletons.
func (p *Problem) PathVCAt(i int, sigma template.Solution) logic.Formula {
	f, _ := p.PathVCFill(i, sigma)
	return f
}

// PathVCFill is PathVCAt together with the fill it was built from: the
// formulas standing in for the unknowns of PathVCSkeleton(i).
func (p *Problem) PathVCFill(i int, sigma template.Solution) (logic.Formula, map[string]logic.Formula) {
	path := &p.Paths()[i]
	fill := map[string]logic.Formula{
		preHole:  p.FillTemplateAt(path.From, sigma),
		postHole: path.Sigma.Apply(p.FillTemplateAt(path.To, sigma)),
	}
	return p.compiled().vcs[i].Fill(fill), fill
}

// PathVCSkeleton returns the interned compiled VC skeleton of path i — the
// VC with its pre/post holes unfilled. Every PathVCAt(i, ·) probe shares
// this structure, which makes it the natural key for a persistent
// incremental solving context.
func (p *Problem) PathVCSkeleton(i int) *logic.IFormula {
	return logic.Intern(p.compiled().vcs[i].Skeleton())
}

// CheckAll reports whether VC(Prog, σ) is valid, and if not returns the
// first failing path. Probes are routed through one context per path
// skeleton.
func (p *Problem) CheckAll(s *smt.Solver, sigma template.Solution) (bool, *vc.Path) {
	for i := range p.Paths() {
		f, fill := p.PathVCFill(i, sigma)
		if !s.ContextFor(p.PathVCSkeleton(i)).ValidFill(f, fill) {
			return false, &p.Paths()[i]
		}
	}
	return true, nil
}

// SolveVC builds the partially instantiated VC used by the iterative
// algorithms: the source template instantiated (fillFrom) while the target
// keeps its unknowns, or vice versa.
//
// ForwardVC (LFP step): VC(⟨τ1σ, δ, τ2⟩) where τ2's unknowns remain and its
// eventual predicates live over the path's SSA exit variables (domain Qσt).
func (p *Problem) ForwardVC(path vc.Path, sigma template.Solution) logic.Formula {
	pre := sigma.Fill(p.TemplateAt(path.From))
	post := path.Sigma.Apply(p.TemplateAt(path.To)) // unknowns untouched by renaming
	return path.VC(pre, post)
}

// ForwardVCAt is ForwardVC for path index i via the compiled skeletons.
func (p *Problem) ForwardVCAt(i int, sigma template.Solution) logic.Formula {
	path := &p.Paths()[i]
	return p.VCAt(i, p.FillTemplateAt(path.From, sigma), p.compiled().renTo[i])
}

// RenamedTemplateTo returns σt applied to path i's target template with
// unknowns in place (cached; the post side of every forward VC and progress
// constraint).
func (p *Problem) RenamedTemplateTo(i int) logic.Formula {
	return p.compiled().renTo[i]
}

// BackwardVC (GFP step): VC(⟨τ1, δ, τ2σ·σt⟩) where τ1's unknowns remain
// over the original program variables (domain Q).
func (p *Problem) BackwardVC(path vc.Path, sigma template.Solution) logic.Formula {
	pre := p.TemplateAt(path.From)
	post := path.Sigma.Apply(sigma.Fill(p.TemplateAt(path.To)))
	return path.VC(pre, post)
}

// BackwardVCAt is BackwardVC for path index i via the compiled skeletons.
func (p *Problem) BackwardVCAt(i int, sigma template.Solution) logic.Formula {
	path := &p.Paths()[i]
	post := path.Sigma.Apply(p.FillTemplateAt(path.To, sigma))
	return p.VCAt(i, p.TemplateAt(path.From), post)
}

// InitialLFP returns σ0 for the least fixed-point algorithm: negative
// unknowns ↦ ∅ and positive unknowns ↦ Q(v), the strongest instantiation of
// every template.
func (p *Problem) InitialLFP() (template.Solution, error) {
	return p.initial(true)
}

// InitialGFP returns σ0 for the greatest fixed-point algorithm: positive
// unknowns ↦ ∅ and negative unknowns ↦ Q(v), the weakest instantiation.
func (p *Problem) InitialGFP() (template.Solution, error) {
	return p.initial(false)
}

func (p *Problem) initial(strongest bool) (template.Solution, error) {
	pol, err := p.Polarities()
	if err != nil {
		return nil, err
	}
	sigma := template.Solution{}
	for u, q := range pol {
		fullWhenPositive := strongest
		if (q == template.Positive) == fullWhenPositive {
			sigma[u] = template.NewPredSet(p.Q[u]...)
		} else {
			sigma[u] = template.NewPredSet()
		}
	}
	return sigma, nil
}

// Validate performs basic well-formedness checks: every unknown has a
// predicate vocabulary, entry/exit defaults are sane, and templates have
// consistent polarity. It is cheap and intended to run before solving.
func (p *Problem) Validate() error {
	if p.Prog == nil {
		return fmt.Errorf("spec: nil program")
	}
	if _, err := p.Polarities(); err != nil {
		return err
	}
	cuts := map[string]bool{vc.Entry: true, vc.Exit: true}
	for _, c := range p.Prog.CutPoints() {
		cuts[c] = true
	}
	for cut := range p.Templates {
		if !cuts[cut] {
			return fmt.Errorf("spec: template attached to unknown cut-point %q", cut)
		}
	}
	for _, u := range p.Unknowns() {
		if len(p.Q[u]) == 0 {
			return fmt.Errorf("spec: unknown %s has an empty predicate vocabulary", u)
		}
	}
	return nil
}
