package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// TestAblationEquivalence is the property behind Table 2: every
// leave-one-out optimizer configuration is an *optimization*, not a
// semantics change. Each configuration must produce a bit-identical
// value rendering on the Java-subset corpus, agree on accept/reject for
// damaged inputs, and fail at the identical input position when it does
// fail (diagnostic production names may differ across transform
// pipelines; positions may not).
func TestAblationEquivalence(t *testing.T) {
	corpus := []struct {
		name  string
		input string
	}{
		{"small", workload.JavaProgram(workload.Config{Seed: 1, Size: 2_000})},
		{"medium", workload.JavaProgram(workload.Config{Seed: 2, Size: 24_000})},
	}
	// Damaged variants: drop a closing brace, splice a stray token.
	base := corpus[0].input
	mid := len(base) / 2
	corpus = append(corpus,
		struct{ name, input string }{"spliced", base[:mid] + " @@ " + base[mid:]},
		struct{ name, input string }{"truncated", strings.TrimRight(base[:mid], " \t\n")},
		struct{ name, input string }{"unbalanced", strings.Replace(base, "}", "", 1)},
	)

	configs := ablationConfigs()
	ref := configs[0]
	if ref.Name != "all-on" {
		t.Fatalf("ablationConfigs()[0] = %q, want all-on reference first", ref.Name)
	}
	refProg, err := buildProgram(grammars.JavaCore, ref.Topts, ref.Eopts)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		format string
		pos    text.Pos
		failed bool
	}
	parse := func(prog *vm.Program, name, input string) result {
		v, _, err := prog.Parse(context.Background(), text.NewSource(name, input), vm.ParseOptions{})
		if err != nil {
			pe, ok := err.(*vm.ParseError)
			if !ok {
				t.Fatalf("%s: unexpected error type %T: %v", name, err, err)
			}
			return result{failed: true, pos: pe.Pos}
		}
		return result{format: ast.Format(v)}
	}

	refResults := map[string]result{}
	for _, c := range corpus {
		refResults[c.name] = parse(refProg, c.name, c.input)
	}

	for _, cfg := range configs[1:] {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := buildProgram(grammars.JavaCore, cfg.Topts, cfg.Eopts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range corpus {
				got := parse(prog, c.name, c.input)
				want := refResults[c.name]
				if got.failed != want.failed {
					t.Fatalf("%s: accept=%v, all-on accept=%v", c.name, !got.failed, !want.failed)
				}
				if got.failed {
					if got.pos != want.pos {
						t.Fatalf("%s: fails at %d, all-on fails at %d", c.name, got.pos, want.pos)
					}
					continue
				}
				if got.format != want.format {
					t.Fatalf("%s: value rendering differs from all-on\n%s", c.name, diffHint(got.format, want.format))
				}
			}
		})
	}
}

// diffHint locates the first divergence between two renderings.
func diffHint(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			ha, hb := hi, hi
			if ha > len(a) {
				ha = len(a)
			}
			if hb > len(b) {
				hb = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\n got:  ...%s\n want: ...%s", i, a[lo:ha], b[lo:hb])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}
