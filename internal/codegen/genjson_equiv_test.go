package codegen

import (
	"context"
	"go/format"
	"os"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/codegen/genjson"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

func TestGoldenGenjson(t *testing.T) {
	data, err := os.ReadFile("genjson/genjson.go")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	g, err := grammars.Compose(grammars.JSON)
	if err != nil {
		t.Fatal(err)
	}
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(tg, Options{Package: "genjson", EntryComment: "grammar: json.value (bundled)"})
	if err != nil {
		t.Fatal(err)
	}
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(formatted) != string(data) {
		t.Fatal("genjson/genjson.go is stale; regenerate with go run ./internal/tools/gengrammar")
	}
}

func TestGenjsonMatchesInterpreter(t *testing.T) {
	g, err := grammars.Compose(grammars.JSON)
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
		`null`, `[]`, `{}`, `{"a": [1, {"b": null}], "c": "s"}`,
		`-1.5e+3`, `"\""`,
		``, `{`, `[1,]`, `nul`,
	}
	// Plus generated corpora.
	for seed := int64(0); seed < 3; seed++ {
		inputs = append(inputs, workload.JSONDoc(workload.Config{Seed: seed, Size: 2000}))
	}
	for _, in := range inputs {
		vVM, _, errVM := prog.Parse(context.Background(), text.NewSource("in", in), vm.ParseOptions{})
		vGen, errGen := genjson.Parse(in)
		if (errVM == nil) != (errGen == nil) {
			t.Fatalf("input %.40q: vm err=%v, gen err=%v", in, errVM, errGen)
		}
		if errVM != nil {
			continue
		}
		if ast.Format(vVM) != genjson.Format(vGen) {
			t.Fatalf("input %.60q:\n vm : %.200s\n gen: %.200s", in, ast.Format(vVM), genjson.Format(vGen))
		}
	}
}
