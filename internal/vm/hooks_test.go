package vm

import (
	"context"
	"strings"
	"testing"

	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// traceGrammar is built with the Baseline transform (no inlining) and
// map memoization (no dispatch tables) so its call trace is fully
// deterministic: every production entry, exit, and memo interaction
// appears, in source order.
const traceGrammar = `
option root = S;
public S = B !. / A "y" !. ;
B = A "x" ;
A = $("a") ;
`

func buildTraceProg(t *testing.T) *Program {
	t.Helper()
	return buildWith(t, traceGrammar, transform.Baseline(), Options{Memoize: true})
}

func traceOf(t *testing.T, prog *Program, input string, wantErr bool) string {
	t.Helper()
	var b strings.Builder
	_, _, err := prog.Parse(context.Background(), text.NewSource("in", input), ParseOptions{Hook: prog.NewTraceText(&b)})
	if wantErr != (err != nil) {
		t.Fatalf("parse %q: err = %v, wantErr %v", input, err, wantErr)
	}
	return b.String()
}

// Golden traces for the three interesting shapes: a straight success, a
// parse that fails outright, and a success that backtracks into a memo
// hit. The trace is a public, documented format (docs/OBSERVABILITY.md);
// these tests pin it exactly.

func TestTraceGoldenSuccess(t *testing.T) {
	got := traceOf(t, buildTraceProg(t), "ax", false)
	want := `S @0 {
  B @0 {
    A @0 {
    } A @0 -> 1
  } B @0 -> 2
} S @0 -> 2
`
	if got != want {
		t.Errorf("success trace:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceGoldenFailure(t *testing.T) {
	got := traceOf(t, buildTraceProg(t), "b", true)
	want := `S @0 {
  B @0 {
    A @0 {
    } A @0 -> fail
  } B @0 -> fail
  A @0: memo-fail
} S @0 -> fail
`
	if got != want {
		t.Errorf("failure trace:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceGoldenMemoHit(t *testing.T) {
	// "ay" fails the first alternative after A has consumed one byte, so
	// the second alternative's A resolves from the memo table.
	got := traceOf(t, buildTraceProg(t), "ay", false)
	want := `S @0 {
  B @0 {
    A @0 {
    } A @0 -> 1
  } B @0 -> fail
  A @0: memo-hit -> 1
} S @0 -> 2
`
	if got != want {
		t.Errorf("memo-hit trace:\n%s\nwant:\n%s", got, want)
	}
}

// recordingHook asserts the Hook contract the interpreter promises:
// OnEnter/OnExit pairs nest strictly and agree on (prod, pos).
type recordingHook struct {
	t     *testing.T
	stack [][2]int
	enters, exits,
	memoHits, fails int
}

func (r *recordingHook) OnEnter(prod, pos int) {
	r.enters++
	r.stack = append(r.stack, [2]int{prod, pos})
}

func (r *recordingHook) OnExit(prod, pos, end int, ok bool) {
	r.exits++
	if len(r.stack) == 0 {
		r.t.Fatal("OnExit with empty stack")
	}
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if top != [2]int{prod, pos} {
		r.t.Fatalf("OnExit(%d,%d) does not match OnEnter%v", prod, pos, top)
	}
	if ok && end < pos {
		r.t.Fatalf("OnExit(%d,%d): end %d before pos", prod, pos, end)
	}
}

func (r *recordingHook) OnMemoHit(prod, pos, end int, ok bool) { r.memoHits++ }
func (r *recordingHook) OnFail(prod, pos int)                  { r.fails++ }

func TestHookEventNesting(t *testing.T) {
	src := text.NewSource("in", "(1+2)*3 - 4*(5-6)")
	for _, cfg := range engineConfigs {
		prog := build(t, calcGrammar, cfg)
		rec := &recordingHook{t: t}
		_, stats, err := prog.Parse(context.Background(), src, ParseOptions{Hook: rec})
		if err != nil {
			t.Fatalf("cfg %v: %v", cfg, err)
		}
		if len(rec.stack) != 0 {
			t.Errorf("cfg %v: %d unmatched OnEnter events", cfg, len(rec.stack))
		}
		if rec.enters != rec.exits {
			t.Errorf("cfg %v: %d enters, %d exits", cfg, rec.enters, rec.exits)
		}
		if rec.enters != stats.Calls {
			t.Errorf("cfg %v: %d enters, stats.Calls %d", cfg, rec.enters, stats.Calls)
		}
		if rec.memoHits != stats.MemoHits {
			t.Errorf("cfg %v: %d memo hits, stats.MemoHits %d", cfg, rec.memoHits, stats.MemoHits)
		}
		if rec.fails > stats.DispatchSkips {
			t.Errorf("cfg %v: %d OnFail > stats.DispatchSkips %d", cfg, rec.fails, stats.DispatchSkips)
		}
	}
}

// TestHookFailingParseStillBalanced checks the contract holds when the
// parse itself errors out.
func TestHookFailingParseStillBalanced(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	rec := &recordingHook{t: t}
	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", "1+*2"), ParseOptions{Hook: rec}); err == nil {
		t.Fatal("expected syntax error")
	}
	if len(rec.stack) != 0 || rec.enters != rec.exits {
		t.Fatalf("unbalanced events on failing parse: %d enters, %d exits, %d open",
			rec.enters, rec.exits, len(rec.stack))
	}
}

// TestDisabledInstrumentationZeroAllocs is the regression guard the
// observability layer ships under: with no hook installed and no
// profiler attached, the steady-state void-grammar parse must allocate
// exactly zero objects — the hook seam and metrics registry may not
// disturb the zero-allocation property established by the session layer.
func TestDisabledInstrumentationZeroAllocs(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4/5+", 200) + "6"
	src := text.NewSource("in", input)
	prog := build(t, voidCalcGrammar, Optimized())
	s := prog.NewSession()
	// Zero ParseOptions under a background context: arming writes a
	// handful of scalars and the governance edges never fire.
	ctx := context.Background()
	if _, _, err := s.Parse(ctx, src, ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.Parse(ctx, src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation added %.1f allocs/op to session parse, want 0", allocs)
	}
	// The pooled path carries the same guarantee once the pool is warm —
	// except under the race detector, which deliberately randomizes
	// sync.Pool caching and so makes pool misses (fresh parsers) part of
	// normal operation.
	if raceEnabled {
		t.Log("race detector on: skipping pooled-path alloc assertion")
		return
	}
	// The pooled parse with sampling off and an empty trace ID is the
	// serve layer's default hot path: the sampling decision is one
	// atomic load in acquire and the exemplar branch one string
	// comparison in finishStats — neither may allocate.
	if prog.Sampling() != 0 {
		t.Fatalf("Sampling() = %d, want 0 by default", prog.Sampling())
	}
	if _, _, err := prog.Parse(ctx, src, ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := prog.Parse(ctx, src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation added %.1f allocs/op to pooled parse, want 0", allocs)
	}
}
