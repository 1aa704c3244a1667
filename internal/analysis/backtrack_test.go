// Backtrack-prefix tests live in an external test package so they can
// run the left-recursion transform (transform imports analysis).
package analysis_test

import (
	"testing"

	"modpeg/internal/analysis"
	"modpeg/internal/core"
	"modpeg/internal/peg"
	"modpeg/internal/transform"
)

func composed(t *testing.T, body string) *peg.Grammar {
	t.Helper()
	g, err := core.Compose("m", core.MapResolver{"m": "module m;\n" + body})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	return g
}

func names(set map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k, v := range set {
		if v {
			out[k] = true
		}
	}
	return out
}

// TestBacktrackPrefixesChoice pins the policy on the paper's motivating
// shape: a conditional whose two alternatives both start by parsing the
// same operator tower. Only the outermost shared production is worth a
// memo column — once it hits, the retry never descends further, so the
// inner tower members must be filtered out as dominated.
func TestBacktrackPrefixesChoice(t *testing.T) {
	// The tower below Or is deliberately choice-free (repetitions, not
	// ordered alternatives) so the only competition is Cond's retry.
	g := composed(t, `
option root = S;
public S = c:Cond !. ;
Cond = c:Or "?" t:Cond ":" f:Cond @If / Or ;
Or = l:And ("|" And)* ;
And = l:Prim ("&" Prim)* ;
Prim = v:$([0-9]+) @N ;
`)
	got := names(analysis.Analyze(g).BacktrackPrefixes())
	if !got["m.Or"] {
		t.Errorf("Or is re-entered by the Cond retry and must be memoized; got %v", got)
	}
	for _, dominated := range []string{"m.And", "m.Prim"} {
		if got[dominated] {
			t.Errorf("%s sits below Or on the shared frontier and must be dominated out; got %v", dominated, got)
		}
	}
	if got["m.Cond"] || got["m.S"] {
		t.Errorf("no choice point re-enters Cond or S at the same position; got %v", got)
	}
}

// TestBacktrackPrefixesNullablePrefix covers the sequence rule: in
// `A? B`, when A fails or succeeds empty, B probes the position A just
// examined, so a production on both leftmost frontiers is parsed twice.
func TestBacktrackPrefixesNullablePrefix(t *testing.T) {
	g := composed(t, `
public S = A? B !. ;
A = X "a" ;
B = X "b" ;
X = "x" ;
`)
	got := names(analysis.Analyze(g).BacktrackPrefixes())
	if !got["m.X"] {
		t.Errorf("X is probed by both A? and B at the same position; got %v", got)
	}
	for _, absent := range []string{"m.A", "m.B", "m.S"} {
		if got[absent] {
			t.Errorf("%s is never re-entered at one position; got %v", absent, got)
		}
	}
}

// TestBacktrackPrefixesLeftRecSuffixes covers the transformed grammar:
// each growth step of a left recursion tries every suffix at the
// current end, so productions shared across suffix frontiers compete.
func TestBacktrackPrefixesLeftRecSuffixes(t *testing.T) {
	g := composed(t, `
option root = P;
public P = e:E !. ;
E = <add> l:E Sp "+" r:T @Add / <sub> l:E Sp "-" r:T @Sub / T ;
T = v:$([0-9]+) @N ;
void Sp = " "* ;
`)
	tg, _, err := transform.Apply(g, transform.Options{LeftRecursion: true})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	got := names(analysis.Analyze(tg).BacktrackPrefixes())
	if !got["m.Sp"] {
		t.Errorf("Sp leads both left-recursion suffixes and must be memoized; got %v", got)
	}
	if got["m.T"] {
		t.Errorf("T is only reached after a suffix consumed its operator; got %v", got)
	}
}

// TestBacktrackPrefixesNoCompetition: straight-line grammars create no
// same-position re-entry, so the memo set must be empty — this is what
// lets the compiled engine run simple grammars with zero memo columns.
func TestBacktrackPrefixesNoCompetition(t *testing.T) {
	g := composed(t, `
public S = "a" B "c" !. ;
B = "b"+ ;
`)
	if got := names(analysis.Analyze(g).BacktrackPrefixes()); len(got) != 0 {
		t.Errorf("no competition anywhere, want empty memo set, got %v", got)
	}
}

// TestCycleBreakersSharedPrefix: E is re-entered one byte in by its
// second alternative, which no backtrack prefix covers. E sits on the
// only call cycle, so it is the breaker.
func TestCycleBreakersSharedPrefix(t *testing.T) {
	g := composed(t, `
public S = E !. ;
E = "(" E ")" "x" / "(" E ")" "y" / "a" ;
`)
	a := analysis.Analyze(g)
	prefixes := a.BacktrackPrefixes()
	if prefixes["m.E"] {
		t.Fatalf("E is never called before input is read; prefixes %v", names(prefixes))
	}
	if got := names(a.CycleBreakers(prefixes)); len(got) != 1 || !got["m.E"] {
		t.Errorf("breakers = %v, want only m.E", got)
	}
}

// TestCycleBreakersPickNestingEntry: on an expression tower the one
// breaker is the production entered after "(", which runs once per
// nesting level, not the per-operand levels below it.
func TestCycleBreakersPickNestingEntry(t *testing.T) {
	g := composed(t, `
public S = Expr !. ;
Expr = Term (("+" / "-") Term)* ;
Term = Factor (("*" / "/") Factor)* ;
Factor = Number / "(" Expr ")" ;
Number = [0-9]+ ;
`)
	if got := names(analysis.Analyze(g).CycleBreakers(nil)); len(got) != 1 || !got["m.Expr"] {
		t.Errorf("breakers = %v, want only m.Expr", got)
	}
}

// TestCycleBreakersRespectMemoAndTransient: a cycle that already holds
// a memoized production needs no breaker, and a transient production
// is never picked even when it is the only nesting entry.
func TestCycleBreakersRespectMemoAndTransient(t *testing.T) {
	g := composed(t, `
public S = A !. ;
A = "(" B ")" / "a" ;
B = "[" A "]" / "b" ;
`)
	a := analysis.Analyze(g)
	if got := names(a.CycleBreakers(map[string]bool{"m.A": true})); len(got) != 0 {
		t.Errorf("memoized A already breaks the cycle; breakers = %v", got)
	}
	g.Prods["m.A"].Attrs |= peg.AttrTransient
	if got := names(analysis.Analyze(g).CycleBreakers(nil)); len(got) != 1 || !got["m.B"] {
		t.Errorf("A is transient, want B as the breaker; got %v", got)
	}
}
