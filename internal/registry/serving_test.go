package registry

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modpeg"
	"modpeg/internal/grammars"
)

// javaProbe is a small java.core program whose memo-store count tells
// the engines apart: the compiled engine memoizes backtrack prefixes
// and cycle breakers, the optimized interpreter every non-transient
// production.
const javaProbe = "class A { int f(int x) { return x + 1; } }"

func memoStores(t *testing.T, p *modpeg.Parser, input string) int {
	t.Helper()
	_, st, err := p.ParseWith(context.Background(), "probe", input, modpeg.ParseOptions{})
	if err != nil {
		t.Fatalf("parse %q: %v", input, err)
	}
	return st.MemoStores
}

// bundledMemoStores parses input with the bundled top module on engine.
func bundledMemoStores(t *testing.T, top string, engine modpeg.EngineOptions, input string) int {
	t.Helper()
	p, err := modpeg.New(top, modpeg.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	return memoStores(t, p, input)
}

// TestLeaseServesCompiledEngine pins the registry's engine: a leased
// version parses with the compiled engine's memo layout, which differs
// from the optimized interpreter's.
func TestLeaseServesCompiledEngine(t *testing.T) {
	src, err := grammars.Source(grammars.JavaCore)
	if err != nil {
		t.Fatal(err)
	}
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", grammars.JavaCore, Upload{Source: src})
	lease, err := r.Acquire("acme", grammars.JavaCore, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	got := memoStores(t, lease.Parser, javaProbe)
	compiled := bundledMemoStores(t, grammars.JavaCore, modpeg.EngineCompiled(), javaProbe)
	optimized := bundledMemoStores(t, grammars.JavaCore, modpeg.EngineOptimized(), javaProbe)
	if compiled == optimized {
		t.Fatalf("probe does not tell the engines apart: both make %d memo stores", compiled)
	}
	if got != compiled {
		t.Errorf("lease made %d memo stores, want the compiled engine's %d (optimized: %d)", got, compiled, optimized)
	}
}

// TestReloadsEngineRecordingStore reloads a store written when uploads
// chose their engine: meta.json still carries an "engines" map. The
// recorded active version must come back active and serving, the
// listing must carry no engine, and the next write drops the map.
func TestReloadsEngineRecordingStore(t *testing.T) {
	dir := t.TempDir()
	gdir := filepath.Join(dir, "acme", "t.base")
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"v1.mpeg":   baseV1,
		"meta.json": `{"active": 1, "next": 1, "engines": {"1": "compiled"}}` + "\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(gdir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := testRegistry(t, Config{Dir: dir})
	gi, err := r.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Active != 1 || len(gi.Versions) != 1 || gi.Versions[0].State != "active" {
		t.Fatalf("reloaded grammar = %+v, want v1 active", gi)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "aa") {
		t.Error("reloaded v1 must serve")
	}
	listing, err := json.Marshal(gi)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(listing), `"engine"`) {
		t.Errorf("listing still reports an engine: %s", listing)
	}

	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})
	meta, err := os.ReadFile(filepath.Join(gdir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(meta), "engines") {
		t.Errorf("rewritten meta.json keeps the engines map:\n%s", meta)
	}
}

// TestUploadedSharedPrefixRetryIsLinear uploads a grammar whose
// recursive production is retried after a shared terminal prefix, not
// at the start of its alternatives. The serving engine must memoize it:
// parse calls grow linearly with nesting depth, not 2^depth.
func TestUploadedSharedPrefixRetryIsLinear(t *testing.T) {
	const src = `module t.nest;
option root = S;
public S = E !. ;
E = "(" E ")" "x" / "(" E ")" "y" / "a" ;
`
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.nest", Upload{Source: src})
	lease, err := r.Acquire("acme", "t.nest", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	calls := func(depth int) int {
		input := "a"
		for i := 0; i < depth; i++ {
			input = "(" + input + ")y"
		}
		_, st, err := lease.Parser.ParseWith(context.Background(), "nest", input, modpeg.ParseOptions{Limits: lease.Limits})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return st.Calls
	}
	// Linear work doubles from depth 8 to 16; exponential work grows
	// 256-fold.
	if c8, c16 := calls(8), calls(16); c16 > 3*c8 {
		t.Fatalf("calls grew %d -> %d from depth 8 to 16: not linear", c8, c16)
	}
}
