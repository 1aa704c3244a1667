package vm

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"modpeg/internal/analysis"
	"modpeg/internal/ast"
	"modpeg/internal/peg"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// The randomized equivalence harness: generate random well-formed
// grammars, generate random inputs (both matching and arbitrary), and
// assert that every engine configuration and every optimizer
// configuration produces identical accept/reject decisions and identical
// semantic values. This exercises the full pipeline — analysis,
// transformation, compilation, execution — far beyond the hand-written
// cases.

// grammarGen builds random grammars over a small terminal alphabet. The
// construction guarantees well-formedness by design: every generated
// sub-expression consumes at least one byte unless wrapped in ?/*
// carefully, references only already-planned productions (no cycles except
// a guarded self-recursion pattern), and never puts a nullable body under
// repetition.
type grammarGen struct {
	r     *rand.Rand
	names []string
}

func (g *grammarGen) grammar(numProds int) *peg.Grammar {
	g.names = nil
	for i := 0; i < numProds; i++ {
		g.names = append(g.names, fmt.Sprintf("P%d", i))
	}
	gr := &peg.Grammar{Root: "fuzz.P0", Prods: map[string]*peg.Production{}}
	for i := numProds - 1; i >= 0; i-- {
		// Production i may reference productions with larger indices
		// (strictly layered -> acyclic), plus guarded self-recursion.
		p := &peg.Production{
			Name:   "fuzz." + g.names[i],
			Kind:   peg.Define,
			Choice: g.choice(i, 3),
		}
		switch g.r.Intn(6) {
		case 0:
			p.Attrs |= peg.AttrText
		case 1:
			p.Attrs |= peg.AttrTransient
		case 2:
			p.Attrs |= peg.AttrMemo
		}
		gr.Add(p)
	}
	// Reverse Order so P0 comes first (cosmetic determinism).
	for l, r := 0, len(gr.Order)-1; l < r; l, r = l+1, r-1 {
		gr.Order[l], gr.Order[r] = gr.Order[r], gr.Order[l]
	}
	return gr
}

// choice returns a random choice whose alternatives each consume at least
// one byte.
func (g *grammarGen) choice(layer, depth int) *peg.Choice {
	n := 1 + g.r.Intn(3)
	c := &peg.Choice{}
	for i := 0; i < n; i++ {
		seq := g.seq(layer, depth)
		if g.r.Intn(4) == 0 {
			seq.Ctor = fmt.Sprintf("N%d", g.r.Intn(5))
		}
		c.Alts = append(c.Alts, seq)
	}
	return c
}

func (g *grammarGen) seq(layer, depth int) *peg.Seq {
	n := 1 + g.r.Intn(3)
	s := &peg.Seq{}
	for i := 0; i < n; i++ {
		it := peg.Item{Expr: g.expr(layer, depth, i == 0)}
		if g.r.Intn(4) == 0 {
			it.Bind = fmt.Sprintf("b%d", i)
		}
		s.Items = append(s.Items, it)
	}
	return s
}

// expr returns a random expression; if mustConsume, it consumes >=1 byte
// on success.
func (g *grammarGen) expr(layer, depth int, mustConsume bool) peg.Expr {
	if depth <= 0 {
		return g.terminal()
	}
	switch g.r.Intn(10) {
	case 0:
		if !mustConsume {
			return peg.Opt(g.expr(layer, depth-1, true))
		}
		return g.terminal()
	case 1:
		if !mustConsume {
			return peg.Star(g.expr(layer, depth-1, true))
		}
		return peg.Plus(g.expr(layer, depth-1, true))
	case 2:
		return peg.Plus(g.expr(layer, depth-1, true))
	case 3:
		if !mustConsume {
			return peg.Ahead(g.expr(layer, depth-1, true))
		}
		return g.terminal()
	case 4:
		if !mustConsume {
			return peg.Never(g.expr(layer, depth-1, true))
		}
		return g.terminal()
	case 5:
		return peg.Text(g.expr(layer, depth-1, true))
	case 6:
		// Reference to a deeper layer, when one exists.
		if layer+1 < len(g.names) {
			return peg.Ref("fuzz." + g.names[layer+1+g.r.Intn(len(g.names)-layer-1)])
		}
		return g.terminal()
	case 7:
		return g.choice(layer, depth-1)
	default:
		return g.terminal()
	}
}

func (g *grammarGen) terminal() peg.Expr {
	switch g.r.Intn(4) {
	case 0:
		return peg.Lit(string([]byte{byte('a' + g.r.Intn(3))}))
	case 1:
		lits := []string{"ab", "ba", "aa", "abc"}
		return peg.Lit(lits[g.r.Intn(len(lits))])
	case 2:
		return peg.Class('a', 'c')
	default:
		return peg.Class('a', 'b')
	}
}

// randomInput produces strings over the grammar's alphabet with varying
// lengths, plus the empty string.
func randomInput(r *rand.Rand) string {
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(3)))
	}
	return b.String()
}

func TestFuzzEngineEquivalence(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	if s := os.Getenv("MODPEG_FUZZ_SEEDS"); s != "" {
		fmt.Sscan(s, &seeds)
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		gg := &grammarGen{r: r}
		g := gg.grammar(2 + r.Intn(4))
		if err := analysis.Analyze(g).Check(); err != nil {
			// The construction should prevent this; a violation is a bug
			// in the generator worth knowing about.
			t.Fatalf("seed %d: generated grammar ill-formed: %v", seed, err)
		}

		type cfg struct {
			name  string
			topts transform.Options
			eopts Options
		}
		configs := []cfg{
			{"back/raw", transform.Options{LeftRecursion: true}, Backtracking()},
			{"naive/baseline", transform.Baseline(), NaivePackrat()},
			{"opt/defaults", transform.Defaults(), Optimized()},
			{"memoall-chunks/defaults", transform.Defaults(),
				Options{Memoize: true, MemoEverything: true, ChunkedMemo: true, Dispatch: true}},
		}
		var parsers []*Parser
		for _, c := range configs {
			tg, _, err := transform.Apply(g, c.topts)
			if err != nil {
				t.Fatalf("seed %d %s: transform: %v", seed, c.name, err)
			}
			prog, err := Compile(tg, c.eopts)
			if err != nil {
				t.Fatalf("seed %d %s: compile: %v\n%s", seed, c.name, err, peg.FormatGrammar(g))
			}
			parsers = append(parsers, prog.NewSession().ps)
		}

		for trial := 0; trial < 25; trial++ {
			input := randomInput(r)
			src := text.NewSource("fuzz", input)
			refV, refN, refErr := parsers[0].parsePrefix(src)
			for ci, ps := range parsers[1:] {
				v, n, err := ps.parsePrefix(src)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("seed %d input %q: %s accept=%v vs %s accept=%v\ngrammar:\n%s",
						seed, input, configs[ci+1].name, err == nil, configs[0].name, refErr == nil,
						peg.FormatGrammar(g))
				}
				if err != nil {
					continue
				}
				if n != refN {
					t.Fatalf("seed %d input %q: %s consumed %d vs %d\ngrammar:\n%s",
						seed, input, configs[ci+1].name, n, refN, peg.FormatGrammar(g))
				}
				if !ast.Equal(refV, v) {
					t.Fatalf("seed %d input %q: value mismatch\n %s: %s\n %s: %s\ngrammar:\n%s",
						seed, input, configs[0].name, ast.Format(refV),
						configs[ci+1].name, ast.Format(v), peg.FormatGrammar(g))
				}
			}
		}
	}
}

// TestFuzzPrintParseCompile round-trips random grammars through the
// printer and checks the result still analyzes identically (the printer
// and the front end agree on every construct the generator emits).
func TestFuzzGrammarFormatStable(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		r := rand.New(rand.NewSource(int64(1000 + seed)))
		gg := &grammarGen{r: r}
		g := gg.grammar(2 + r.Intn(3))
		s1 := peg.FormatGrammar(g)
		s2 := peg.FormatGrammar(g.Clone())
		if s1 != s2 {
			t.Fatalf("seed %d: clone formats differently", seed)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Transform must not mutate the original.
		if peg.FormatGrammar(g) != s1 {
			t.Fatalf("seed %d: transform mutated input", seed)
		}
		if err := analysis.Analyze(tg).CheckTransformed(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
