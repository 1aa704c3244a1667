package vm

import (
	"context"
	"strings"
	"testing"

	"modpeg/internal/analysis"
	"modpeg/internal/ast"
	"modpeg/internal/core"
	"modpeg/internal/peg"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// build composes, transforms (with the default pipeline unless raw), and
// compiles a single-module grammar.
func build(t *testing.T, body string, opts Options) *Program {
	t.Helper()
	g := grammarOf(t, body)
	out, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	prog, err := Compile(out, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func grammarOf(t *testing.T, body string) *peg.Grammar {
	t.Helper()
	g, err := core.Compose("m", core.MapResolver{"m": "module m;\n" + body})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	return g
}

func parse(t *testing.T, prog *Program, input string) ast.Value {
	t.Helper()
	v, _, err := prog.Parse(context.Background(), text.NewSource("input", input), ParseOptions{})
	if err != nil {
		t.Fatalf("parse %q: %v", input, err)
	}
	return v
}

const calcGrammar = `
option root = Program;
public Program = Spacing e:Sum !. ;
Sum =
    <add> l:Prod "+" Spacing r:Sum @Add
  / <sub> l:Prod "-" Spacing r:Sum @Sub
  / Prod
  ;
Prod =
    <mul> l:Atom "*" Spacing r:Prod @Mul
  / Atom
  ;
Atom = Number / "(" Spacing Sum ")" Spacing ;
Number = v:$([0-9]+) Spacing @Num ;
void Spacing = [ \t\n\r]* ;
`

func TestParseCalc(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	v := parse(t, prog, "1 + 2*3")
	want := `(Add (Num "1") (Mul (Num "2") (Num "3")))`
	if got := ast.Format(v); got != want {
		t.Fatalf("value = %s, want %s", got, want)
	}
}

func TestParseParens(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	v := parse(t, prog, "(1+2)*3")
	want := `(Mul (Add (Num "1") (Num "2")) (Num "3"))`
	if got := ast.Format(v); got != want {
		t.Fatalf("value = %s", got)
	}
}

func TestParseLeftRecursionAssociativity(t *testing.T) {
	prog := build(t, `
option root = Program;
public Program = e:Sum !. ;
Sum = <sub> l:Sum "-" r:Num @Sub / Num ;
Num = v:$([0-9]+) @N ;
`, Optimized())
	v := parse(t, prog, "1-2-3")
	// Left associativity: ((1-2)-3).
	want := `(Sub (Sub (N "1") (N "2")) (N "3"))`
	if got := ast.Format(v); got != want {
		t.Fatalf("value = %s, want %s", got, want)
	}
}

func TestParseRepetitionValues(t *testing.T) {
	prog := build(t, `
public S = xs:Ident* !. ;
Ident = v:$([a-z]+) " "? @Id ;
`, Optimized())
	v := parse(t, prog, "ab cd ef")
	want := `[(Id "ab") (Id "cd") (Id "ef")]`
	if got := ast.Format(v); got != want {
		t.Fatalf("value = %s", got)
	}
	// Zero repetitions produce an empty list, not nil.
	v = parse(t, prog, "")
	if got := ast.Format(v); got != "[]" {
		t.Fatalf("empty value = %s", got)
	}
}

func TestParseOptionalAndPredicates(t *testing.T) {
	prog := build(t, `
public S = sign:Sign? d:$([0-9]+) !. @Lit ;
Sign = $("-" / "+") ;
`, Optimized())
	if got := ast.Format(parse(t, prog, "-42")); got != `(Lit "-" "42")` {
		t.Fatalf("value = %s", got)
	}
	if got := ast.Format(parse(t, prog, "42")); got != `(Lit () "42")` {
		t.Fatalf("value = %s", got)
	}
}

func TestParseKeywordExclusion(t *testing.T) {
	prog := build(t, `
public S = (Keyword / Ident) !. ;
Keyword = v:$("if" ![a-z]) @Kw ;
Ident = v:$([a-z]+) @Id ;
`, Optimized())
	if got := ast.Format(parse(t, prog, "if")); !strings.HasPrefix(got, "(Kw") {
		t.Fatalf("if = %s", got)
	}
	if got := ast.Format(parse(t, prog, "iffy")); !strings.HasPrefix(got, "(Id") {
		t.Fatalf("iffy = %s", got)
	}
}

func TestParseErrorReporting(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	_, _, err := prog.Parse(context.Background(), text.NewSource("bad", "1 + "), ParseOptions{})
	if err == nil {
		t.Fatal("must fail")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Pos != 4 {
		t.Fatalf("failure pos = %d: %v", pe.Pos, err)
	}
	if !strings.Contains(err.Error(), "syntax error") {
		t.Fatalf("error = %v", err)
	}
	if !strings.Contains(pe.Detail(), "^") {
		t.Fatal("detail must include caret")
	}
	// Error at end of input names it.
	if !strings.Contains(err.Error(), "end of input") {
		t.Fatalf("error = %v", err)
	}
}

func TestParseErrorTrailingInput(t *testing.T) {
	prog := build(t, `
public S = "ab" ;
`, Optimized())
	_, _, err := prog.Parse(context.Background(), text.NewSource("bad", "abc"), ParseOptions{})
	if err == nil || !strings.Contains(err.Error(), "expected end of input") {
		t.Fatalf("err = %v", err)
	}
}

func TestParsePrefix(t *testing.T) {
	prog := build(t, `
public S = "ab" ;
`, Optimized())
	ps := prog.NewSession().ps
	_, n, err := ps.parsePrefix(text.NewSource("in", "abc"))
	if err != nil || n != 2 {
		t.Fatalf("n = %d, err = %v", n, err)
	}
	_, _, err = ps.parsePrefix(text.NewSource("in", "xx"))
	if err == nil {
		t.Fatal("prefix mismatch must fail")
	}
}

// engineConfigs are the three paper configurations plus mixed variants.
var engineConfigs = []Options{
	Backtracking(),
	NaivePackrat(),
	Optimized(),
	{Memoize: true},                    // packrat, map memo, no dispatch
	{Memoize: true, ChunkedMemo: true}, // chunks without dispatch
	{Memoize: true, Dispatch: true},    // dispatch without chunks
	{Memoize: true, MemoEverything: true, ChunkedMemo: true, Dispatch: true},
}

func TestEngineEquivalence(t *testing.T) {
	inputs := []string{
		"1",
		"1+2",
		"1 + 2*3",
		"(1+2)*3",
		"1*2*3*4*5",
		"((((1))))",
		"1 - 2 - 3 - 4",
		"  42  ",
	}
	g := grammarOf(t, calcGrammar)
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var progs []*Program
	for _, cfg := range engineConfigs {
		prog, err := Compile(tg, cfg)
		if err != nil {
			t.Fatalf("compile %v: %v", cfg, err)
		}
		progs = append(progs, prog)
	}
	for _, in := range inputs {
		ref, _, refErr := progs[0].Parse(context.Background(), text.NewSource("in", in), ParseOptions{})
		for i, prog := range progs[1:] {
			got, _, err := prog.Parse(context.Background(), text.NewSource("in", in), ParseOptions{})
			if (err == nil) != (refErr == nil) {
				t.Fatalf("config %v input %q: err=%v vs ref err=%v", engineConfigs[i+1], in, err, refErr)
			}
			if err == nil && !ast.Equal(ref, got) {
				t.Fatalf("config %v input %q: %s vs %s",
					engineConfigs[i+1], in, ast.Format(got), ast.Format(ref))
			}
		}
	}
}

func TestEngineEquivalenceAcrossTransforms(t *testing.T) {
	// The same grammar, untransformed baseline vs fully optimized, must
	// produce identical values.
	g := grammarOf(t, calcGrammar)
	base, _, err := transform.Apply(g, transform.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	pBase, err := Compile(base, NaivePackrat())
	if err != nil {
		t.Fatal(err)
	}
	pOpt, err := Compile(opt, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"1+2*3", "(1-2)*3+4", "7"} {
		v1, _, err1 := pBase.Parse(context.Background(), text.NewSource("in", in), ParseOptions{})
		v2, _, err2 := pOpt.Parse(context.Background(), text.NewSource("in", in), ParseOptions{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("input %q: %v vs %v", in, err1, err2)
		}
		if err1 == nil && !ast.Equal(v1, v2) {
			t.Fatalf("input %q: %s vs %s", in, ast.Format(v1), ast.Format(v2))
		}
	}
}

func TestStatsBehaviour(t *testing.T) {
	g := grammarOf(t, calcGrammar)
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	input := text.NewSource("in", "1+2*3-4*(5+6)")

	back, _ := Compile(tg, Backtracking())
	_, sBack, err := back.Parse(context.Background(), input, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sBack.MemoHits != 0 || sBack.MemoStores != 0 || sBack.MemoBytes != 0 {
		t.Fatalf("backtracking must not memoize: %v", sBack)
	}

	naive, _ := Compile(tg, NaivePackrat())
	_, sNaive, err := naive.Parse(context.Background(), input, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sNaive.MemoStores == 0 {
		t.Fatal("naive packrat must store")
	}

	opt, _ := Compile(tg, Optimized())
	_, sOpt, err := opt.Parse(context.Background(), input, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sOpt.MemoStores >= sNaive.MemoStores {
		t.Fatalf("optimized must store less: %d vs %d", sOpt.MemoStores, sNaive.MemoStores)
	}
	if sOpt.MemoBytes >= sNaive.MemoBytes {
		t.Fatalf("optimized must use less memo space: %d vs %d", sOpt.MemoBytes, sNaive.MemoBytes)
	}
	if sOpt.DispatchSkips == 0 {
		t.Fatal("dispatch must skip some alternatives")
	}
	if s := sOpt.String(); !strings.Contains(s, "calls=") {
		t.Fatalf("stats string = %q", s)
	}
}

func TestCompileRejectsLeftRecursion(t *testing.T) {
	g := grammarOf(t, `
public S = S "x" / "y" ;
`)
	if _, err := Compile(g, Optimized()); err == nil {
		t.Fatal("untransformed left recursion must be rejected")
	}
}

func TestCompileRejectsMissingRoot(t *testing.T) {
	g := grammarOf(t, "public S = \"x\" ;\n")
	g.Root = "nowhere"
	if _, err := Compile(g, Optimized()); err == nil {
		t.Fatal("missing root must be rejected")
	}
}

func TestOptionsString(t *testing.T) {
	if Backtracking().String() != "backtracking" {
		t.Fatal("backtracking name")
	}
	if NaivePackrat().String() != "naive-packrat" {
		t.Fatal("naive name")
	}
	s := Optimized().String()
	if !strings.Contains(s, "chunks") || !strings.Contains(s, "dispatch") {
		t.Fatalf("optimized name = %q", s)
	}
}

func TestTextAndVoidProductions(t *testing.T) {
	prog := build(t, `
public S = n:Number !. @S ;
text Number = [0-9]+ ("." [0-9]+)? ;
`, Optimized())
	v := parse(t, prog, "3.14")
	if got := ast.Format(v); got != `(S "3.14")` {
		t.Fatalf("value = %s", got)
	}
}

func TestNodeSpans(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	v := parse(t, prog, "1+2")
	n, ok := v.(*ast.Node)
	if !ok || !n.Span.IsValid() {
		t.Fatalf("root node span missing: %v", ast.Format(v))
	}
	if n.Span.Start != 0 {
		t.Fatalf("span = %v", n.Span)
	}
}

func TestCaptureSpans(t *testing.T) {
	prog := build(t, `
public S = t:$([a-z]+) !. @S ;
`, Optimized())
	v := parse(t, prog, "abc")
	tok := v.(*ast.Node).Child(0).(*ast.Token)
	if tok.Span != text.NewSpan(0, 3) || tok.Text != "abc" {
		t.Fatalf("token = %+v", tok)
	}
}

func TestPathologicalBacktrackingIsLinearWithMemo(t *testing.T) {
	// Classic exponential grammar for plain backtracking: both alternatives
	// share the expensive prefix "(" E ")", so an unmemoized parser parses
	// the nested expression twice per level — 2^depth work — while packrat
	// stays linear.
	src := `
public S = E !. ;
E = "(" E ")" "x" / "(" E ")" "y" / "a" ;
`
	g := grammarOf(t, src)
	tg, _, err := transform.Apply(g, transform.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	depth := 14
	input := "a"
	for i := 0; i < depth; i++ {
		input = "(" + input + ")y"
	}
	naive, _ := Compile(tg, NaivePackrat())
	_, sNaive, err := naive.Parse(context.Background(), text.NewSource("in", input), ParseOptions{})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	back, _ := Compile(tg, Backtracking())
	_, sBack, err := back.Parse(context.Background(), text.NewSource("in", input), ParseOptions{})
	if err != nil {
		t.Fatalf("backtracking: %v", err)
	}
	if sBack.Calls <= sNaive.Calls*4 {
		t.Fatalf("expected exponential blowup without memo: back=%d naive=%d", sBack.Calls, sNaive.Calls)
	}
	// The production engines memoize selectively but must stay linear.
	// E's retries re-enter it after "(", not before reading input, so
	// the compiled engine keeps it only as the breaker of its call cycle.
	for _, opts := range []Options{Optimized(), CompiledEngine()} {
		prog, err := Compile(tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := prog.Parse(context.Background(), text.NewSource("in", input), ParseOptions{})
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		if st.Calls > sNaive.Calls*2 {
			t.Errorf("%v: %d calls against naive packrat's %d: not linear", opts, st.Calls, sNaive.Calls)
		}
	}
}

func TestDeepRecursionDepth(t *testing.T) {
	prog := build(t, `
public S = E !. ;
E = "(" E ")" / "x" ;
`, Optimized())
	depth := 2000
	input := strings.Repeat("(", depth) + "x" + strings.Repeat(")", depth)
	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", input), ParseOptions{}); err != nil {
		t.Fatalf("deep nesting failed: %v", err)
	}
}

func TestCheckTransformedGate(t *testing.T) {
	// Sanity: the analysis gate really runs inside Compile.
	g := grammarOf(t, `
public S = A* ;
A = "a"? ;
`)
	if err := analysis.Analyze(g).Check(); err == nil {
		t.Fatal("analysis must reject nullable repetition")
	}
	if _, err := Compile(g, Optimized()); err == nil {
		t.Fatal("Compile must reject nullable repetition")
	}
}

func TestParseWithTrace(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	var buf strings.Builder
	v, _, err := prog.Parse(context.Background(), text.NewSource("in", "1+1"), ParseOptions{Hook: prog.NewTraceText(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("no value")
	}
	trace := buf.String()
	for _, frag := range []string{"Program @0 {", "Sum @0", "-> 3", "memo-hit"} {
		if !strings.Contains(trace, frag) {
			t.Fatalf("trace missing %q:\n%s", frag, trace)
		}
	}
	// Trace on failure shows the failing exits.
	buf.Reset()
	_, _, err = prog.Parse(context.Background(), text.NewSource("in", "1+"), ParseOptions{Hook: prog.NewTraceText(&buf)})
	if err == nil {
		t.Fatal("must fail")
	}
	if !strings.Contains(buf.String(), "-> fail") {
		t.Fatal("failure trace missing")
	}
}
