package workload

import (
	"context"
	"strings"
	"testing"

	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
)

func progFor(t *testing.T, top string) *vm.Program {
	t.Helper()
	g, err := grammars.Compose(top)
	if err != nil {
		t.Fatalf("compose %s: %v", top, err)
	}
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vm.Compile(tg, vm.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustParse(t *testing.T, prog *vm.Program, input, what string) {
	t.Helper()
	if _, _, err := prog.Parse(context.Background(), text.NewSource(what, input), vm.ParseOptions{}); err != nil {
		if pe, ok := err.(*vm.ParseError); ok {
			t.Fatalf("%s corpus does not parse: %v\n%s", what, err, pe.Detail())
		}
		t.Fatalf("%s corpus does not parse: %v", what, err)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Size: 4000}
	if Expression(cfg) != Expression(cfg) {
		t.Fatal("Expression not deterministic")
	}
	if JSONDoc(cfg) != JSONDoc(cfg) {
		t.Fatal("JSONDoc not deterministic")
	}
	if JavaProgram(cfg) != JavaProgram(cfg) {
		t.Fatal("JavaProgram not deterministic")
	}
	if JavaProgramExt(cfg) != JavaProgramExt(cfg) {
		t.Fatal("JavaProgramExt not deterministic")
	}
	if CProgram(cfg) != CProgram(cfg) {
		t.Fatal("CProgram not deterministic")
	}
	if Expression(Config{Seed: 8, Size: 4000}) == Expression(cfg) {
		t.Fatal("different seeds must differ")
	}
}

func TestGeneratorsHitSizeTargets(t *testing.T) {
	for _, size := range []int{500, 5000, 50000} {
		cfg := Config{Seed: 1, Size: size}
		for name, gen := range map[string]func(Config) string{
			"expr": Expression, "json": JSONDoc, "java": JavaProgram, "c": CProgram,
		} {
			out := gen(cfg)
			if len(out) < size {
				t.Errorf("%s(%d) produced only %d bytes", name, size, len(out))
			}
			if len(out) > size*3+2000 {
				t.Errorf("%s(%d) overshot to %d bytes", name, size, len(out))
			}
		}
	}
}

func TestExpressionCorpusParses(t *testing.T) {
	prog := progFor(t, grammars.CalcCore)
	for seed := int64(0); seed < 5; seed++ {
		mustParse(t, prog, Expression(Config{Seed: seed, Size: 3000}), "calc")
	}
	full := progFor(t, grammars.CalcFull)
	for seed := int64(0); seed < 5; seed++ {
		mustParse(t, full, ExpressionExt(Config{Seed: seed, Size: 3000}), "calc-ext")
	}
}

func TestNestedExpressionParses(t *testing.T) {
	prog := progFor(t, grammars.CalcCore)
	for _, depth := range []int{1, 10, 100} {
		mustParse(t, prog, NestedExpression(depth), "nested")
	}
	if NestedExpression(2) != "((1+1)+1)" {
		t.Fatalf("NestedExpression(2) = %q", NestedExpression(2))
	}
}

func TestJSONCorpusParses(t *testing.T) {
	prog := progFor(t, grammars.JSON)
	for seed := int64(0); seed < 5; seed++ {
		mustParse(t, prog, JSONDoc(Config{Seed: seed, Size: 5000}), "json")
	}
}

func TestJavaCorpusParses(t *testing.T) {
	base := progFor(t, grammars.JavaCore)
	full := progFor(t, grammars.JavaFull)
	for seed := int64(0); seed < 5; seed++ {
		src := JavaProgram(Config{Seed: seed, Size: 8000})
		mustParse(t, base, src, "java-base")
		mustParse(t, full, src, "java-base-on-full")
	}
	sawExt := false
	for seed := int64(0); seed < 5; seed++ {
		src := JavaProgramExt(Config{Seed: seed, Size: 8000})
		mustParse(t, full, src, "java-ext")
		if strings.Contains(src, "assert ") || strings.Contains(src, " ** ") || strings.Contains(src, " : data") {
			sawExt = true
		}
	}
	if !sawExt {
		t.Fatal("extended generator never used an extension construct")
	}
}

func TestCCorpusParses(t *testing.T) {
	prog := progFor(t, grammars.CCore)
	for seed := int64(0); seed < 5; seed++ {
		mustParse(t, prog, CProgram(Config{Seed: seed, Size: 8000}), "c")
	}
}

func TestPathological(t *testing.T) {
	if Pathological(2) != "((a)y)y" {
		t.Fatalf("Pathological(2) = %q", Pathological(2))
	}
	g, err := core.Compose("path", core.MapResolver{"path": PathologicalGrammar})
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
	mustParse(t, prog, Pathological(12), "pathological")
}
