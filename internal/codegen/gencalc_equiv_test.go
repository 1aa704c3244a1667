package codegen

import (
	"context"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/codegen/gencalc"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
)

// TestGeneratedMatchesInterpreter checks the central codegen property: the
// generated parser and the interpreting engine accept the same inputs and
// produce structurally identical values (compared via their s-expression
// renderings, which both sides define identically).
func TestGeneratedMatchesInterpreter(t *testing.T) {
	g, err := grammars.Compose(grammars.CalcCore)
	if err != nil {
		t.Fatal(err)
	}
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(tg, vm.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		"1",
		"1+2*3",
		"(1+2)*3",
		" 1 - 2 - 3 ",
		"((7))",
		"1*2+3*4-5",
		"",
		"1+",
		"x",
		"(1",
	}
	for _, in := range inputs {
		vVM, _, errVM := prog.Parse(context.Background(), text.NewSource("in", in), vm.ParseOptions{})
		vGen, errGen := gencalc.Parse(in)
		if (errVM == nil) != (errGen == nil) {
			t.Fatalf("input %q: vm err=%v, gen err=%v", in, errVM, errGen)
		}
		if errVM != nil {
			continue
		}
		if ast.Format(vVM) != gencalc.Format(vGen) {
			t.Fatalf("input %q:\n  vm : %s\n  gen: %s", in, ast.Format(vVM), gencalc.Format(vGen))
		}
	}
}

func TestGeneratedErrorPositions(t *testing.T) {
	_, err := gencalc.Parse("1 + ")
	if err == nil {
		t.Fatal("must fail")
	}
	pe, ok := err.(*gencalc.ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Pos != 4 || pe.Line != 1 || pe.Column != 5 {
		t.Fatalf("error position = %+v", pe)
	}
	if !strings.Contains(err.Error(), "syntax error") {
		t.Fatalf("error = %v", err)
	}
	// Trailing garbage fails at the stuck position (the grammar's !. EOF
	// guard rejects it).
	_, err = gencalc.Parse("1 2")
	if err == nil {
		t.Fatal("trailing garbage must fail")
	}
	if pe := err.(*gencalc.ParseError); pe.Pos != 2 {
		t.Fatalf("error position = %+v", pe)
	}
}

func TestGeneratedValueShapes(t *testing.T) {
	v, err := gencalc.Parse("1 + 2*3")
	if err != nil {
		t.Fatal(err)
	}
	want := `(Add (Num "1") (Mul (Num "2") (Num "3")))`
	if got := gencalc.Format(v); got != want {
		t.Fatalf("value = %s", got)
	}
	n := v.(*gencalc.Node)
	if n.Name != "Add" || len(n.Children) != 2 {
		t.Fatalf("node = %+v", n)
	}
	if n.Start != 0 || n.End != 7 {
		t.Fatalf("span = [%d,%d)", n.Start, n.End)
	}
}
