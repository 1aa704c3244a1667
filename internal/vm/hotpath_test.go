package vm

import (
	"context"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// The byte-level hot path (scan fusion, choice tables)
// must be invisible: same values, same errors, same positions as the
// per-byte slow path. These tests pin each fast path against its
// disabled twin and exercise the corners the fuzzers rarely hit.

func noScan() Options {
	o := Optimized()
	o.ScanFusion = false
	return o
}

func errText(prog *Program, input string) string {
	_, _, err := prog.Parse(context.Background(), text.NewSource("input", input), ParseOptions{})
	if err == nil {
		return ""
	}
	return err.Error()
}

const scanGrammar = `
option root = S;
public S = Word Spacing Num Tail !. ;
void Spacing = [ \t\n]* ;
Word = $([a-z]+) ;
Num = $([0-9]+) ;
void Tail = ";"* ;
`

func TestScanFusionMatchesPerByte(t *testing.T) {
	fused := build(t, scanGrammar, Optimized())
	plain := build(t, scanGrammar, noScan())
	inputs := []string{
		"abc 123",           // runs of every fused class
		"abc \t\n 123;;;",   // long spacing run, literal repetition
		"a 1",               // single-byte runs
		"abc  12x",          // fails inside a run
		"abc",               // truncated: Num's + has no bytes
		"",                  // empty input
		" abc 1",            // leading spacing not allowed by Word
		"abc 123" + ";;;;;", // trailing literal run to EOF
	}
	for _, in := range inputs {
		fv, _, ferr := fused.Parse(context.Background(), text.NewSource("input", in), ParseOptions{})
		pv, _, perr := plain.Parse(context.Background(), text.NewSource("input", in), ParseOptions{})
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("%q: fused err=%v, plain err=%v", in, ferr, perr)
		}
		if ferr != nil {
			if ferr.Error() != perr.Error() {
				t.Errorf("%q: error text diverged\n fused: %v\n plain: %v", in, ferr, perr)
			}
			continue
		}
		if ast.Format(fv) != ast.Format(pv) {
			t.Errorf("%q: value diverged: %s vs %s", in, ast.Format(fv), ast.Format(pv))
		}
	}
}

func TestScanFusionMinRepetition(t *testing.T) {
	// (class)+ fused into a scan with min=1: an empty run must fail at
	// the run's start with the same diagnostic as the per-byte engine.
	g := `
option root = S;
public S = Digits !. ;
void Digits = [0-9]+ ;
`
	fused := build(t, g, Optimized())
	plain := build(t, g, noScan())
	if errText(fused, "123") != "" || errText(plain, "123") != "" {
		t.Fatal("digits must parse")
	}
	fe, pe := errText(fused, "x"), errText(plain, "x")
	if fe == "" || fe != pe {
		t.Fatalf("min-unmet diagnostics diverged:\n fused: %s\n plain: %s", fe, pe)
	}
}

func TestScanFusionNegatedClassToEOF(t *testing.T) {
	// [^\n]* compiles to the IndexByte fast path (single missing byte).
	// A final line without a newline scans to EOF and must still parse.
	g := `
option root = S;
public S = Line ("\n" Line)* !. ;
Line = $([^\n]*) ;
`
	fused := build(t, g, Optimized())
	plain := build(t, g, noScan())
	for _, in := range []string{"one\ntwo\nthree", "no newline", "", "\n\n"} {
		fv, _, ferr := fused.Parse(context.Background(), text.NewSource("input", in), ParseOptions{})
		pv, _, perr := plain.Parse(context.Background(), text.NewSource("input", in), ParseOptions{})
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("%q: fused err=%v, plain err=%v", in, ferr, perr)
		}
		if ferr == nil && ast.Format(fv) != ast.Format(pv) {
			t.Errorf("%q: value diverged", in)
		}
	}
}

func TestChoiceTablePrunesAlternatives(t *testing.T) {
	// A keyword-style choice: on input starting with 'w', the table
	// must skip the other alternatives without evaluating them.
	g := `
option root = S;
public S = Kw !. ;
Kw = $("if") / $("else") / $("while") / $("for") / $("return") ;
`
	prog := build(t, g, Optimized())
	v, stats, err := prog.Parse(context.Background(), text.NewSource("input", "while"), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ast.Format(v); !strings.Contains(got, "while") {
		t.Fatalf("value = %s", got)
	}
	if stats.DispatchSkips == 0 {
		t.Error("choice table pruned nothing on a keyword alternation")
	}
	// Reject: a byte outside every alternative's first set fails at the
	// same position as the dispatch-free engine (the expected-set list
	// legitimately differs — dispatch names the production, the per-alt
	// walk names each literal — but the position may not; this mirrors
	// the Table 2 ablation-equivalence contract).
	nodisp := Optimized()
	nodisp.Dispatch = false
	slow := build(t, g, nodisp)
	_, _, ferr := prog.Parse(context.Background(), text.NewSource("input", "42"), ParseOptions{})
	_, _, serr := slow.Parse(context.Background(), text.NewSource("input", "42"), ParseOptions{})
	fe, feOK := ferr.(*ParseError)
	se, seOK := serr.(*ParseError)
	if !feOK || !seOK {
		t.Fatalf("want ParseErrors, got %v / %v", ferr, serr)
	}
	if fe.Pos != se.Pos {
		t.Fatalf("reject position diverged: table %d, plain %d", fe.Pos, se.Pos)
	}
}

func TestChoiceTableNullableAlternative(t *testing.T) {
	// A nullable alternative matches the empty string, so no byte (and
	// no EOF) may prune it: the whole choice must still accept inputs
	// that fall through to it.
	g := `
option root = S;
public S = Item "." !. ;
Item = $("x"+) / $("y") / $("z"?) ;
`
	for _, opts := range []Options{Optimized(), noScan()} {
		prog := build(t, g, opts)
		for _, in := range []string{"xx.", "y.", "z.", "."} {
			if e := errText(prog, in); e != "" {
				t.Errorf("%s: %q must parse through the nullable alt, got %s", opts, in, e)
			}
		}
		if e := errText(prog, "q."); e == "" {
			t.Errorf("%s: %q must fail", opts, "q.")
		}
	}
}
