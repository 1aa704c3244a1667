package vm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// voidCalcGrammar exercises memoization, choices, repetition, and
// predicates while producing no semantic values at all — the pure
// parser-machinery workload for the zero-allocation assertions.
const voidCalcGrammar = `
option root = S;
public void S = Expr !. ;
void Expr = Term (("+" / "-") Term)* ;
void Term = Factor (("*" / "/") Factor)* ;
void Factor = Number / "(" Expr ")" ;
void Number = [0-9]+ ;
`

func TestSessionReuseMatchesColdParse(t *testing.T) {
	inputs := []string{
		"1 + 2*3",
		"(1+2)*3",
		"1*2*3*4*5",
		"x",     // fails
		"1 + 2", // shorter than the first input: stale memo would be visible
		"((((1))))",
		"(1+2)*(3+4)-5*6+7*(8-9)", // longer again
		"",                        // fails at position 0
	}
	for _, cfg := range engineConfigs {
		prog := build(t, calcGrammar, cfg)
		s := prog.NewSession()
		for _, in := range inputs {
			src := text.NewSource("in", in)
			coldVal, coldStats, coldErr := prog.NewSession().Parse(context.Background(), src, ParseOptions{})
			gotVal, gotStats, gotErr := s.Parse(context.Background(), src, ParseOptions{})
			if (gotErr == nil) != (coldErr == nil) {
				t.Fatalf("cfg %v input %q: session err %v, cold err %v", cfg, in, gotErr, coldErr)
			}
			if gotErr != nil && gotErr.Error() != coldErr.Error() {
				t.Fatalf("cfg %v input %q: error drift: %v vs %v", cfg, in, gotErr, coldErr)
			}
			if !ast.Equal(gotVal, coldVal) {
				t.Fatalf("cfg %v input %q: value drift: %s vs %s",
					cfg, in, ast.Format(gotVal), ast.Format(coldVal))
			}
			if gotStats != coldStats {
				t.Fatalf("cfg %v input %q: stats drift:\nsession: %v\ncold:    %v",
					cfg, in, gotStats, coldStats)
			}
		}
	}
}

// TestPooledParseMatchesSessionParse is the entry-point matrix: every
// combination of ParseOptions fields, on the pooled path and on a
// reused Session, under the optimized interpreter and the compiled
// engine, must return the value, error and Stats of a plain parse.
// Repeating each cell also checks that a warm parser never drifts.
func TestPooledParseMatchesSessionParse(t *testing.T) {
	ctx := context.Background()
	inputs := []string{"1+2*(3-4)", "(1+2)*3-4*(5-6)", "1+*2"}
	generous := Limits{MaxInputBytes: 1 << 20, MaxMemoBytes: 1 << 30, MaxCallDepth: 1 << 20, MaxParseDuration: time.Minute}
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, cfg := range []Options{Optimized(), CompiledEngine()} {
		prog := build(t, calcGrammar, cfg)
		options := map[string]ParseOptions{
			"zero":   {},
			"limits": {Limits: generous},
			"hook":   {Hook: prog.NewProfiler()},
			"trace":  {TraceID: traceID},
			"all":    {Limits: generous, Hook: &traceRecorder{recordingHook: recordingHook{t: t}}, TraceID: traceID},
		}
		paths := []struct {
			name  string
			parse func(context.Context, *text.Source, ParseOptions) (ast.Value, Stats, error)
		}{{"pooled", prog.Parse}, {"session", prog.NewSession().Parse}}
		for _, in := range inputs {
			src := text.NewSource("in", in)
			want, wantStats, wantErr := prog.NewSession().Parse(ctx, src, ParseOptions{})
			for oname, o := range options {
				for _, path := range paths {
					for rep := 0; rep < 3; rep++ {
						got, gotStats, gotErr := path.parse(ctx, src, o)
						where := fmt.Sprintf("%v %s/%s input %q rep %d", cfg, oname, path.name, in, rep)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: err %v, want %v", where, gotErr, wantErr)
						}
						if !ast.Equal(got, want) {
							t.Fatalf("%s: value %s, want %s", where, ast.Format(got), ast.Format(want))
						}
						if gotStats != wantStats {
							t.Fatalf("%s: stats drift:\ngot:  %v\nwant: %v", where, gotStats, wantStats)
						}
					}
				}
			}
		}
	}
}

func TestSessionParsePrefix(t *testing.T) {
	prog := build(t, "public S = \"ab\" ;\n", Optimized())
	s := prog.NewSession()
	for i := 0; i < 3; i++ {
		_, n, err := s.ps.parsePrefix(text.NewSource("in", "abc"))
		if err != nil || n != 2 {
			t.Fatalf("n = %d, err = %v", n, err)
		}
	}
	if _, _, err := s.ps.parsePrefix(text.NewSource("in", "xx")); err == nil {
		t.Fatal("prefix mismatch must fail")
	}
	if s.Program() != prog {
		t.Fatal("Program identity")
	}
}

// TestSteadyStateAllocsVoidGrammar asserts the headline property of the
// session layer: once warm, the parser machinery itself allocates
// nothing. The grammar is fully void so no semantic values muddy the
// count.
func TestSteadyStateAllocsVoidGrammar(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4/5+", 200) + "6"
	src := text.NewSource("in", input)
	for _, cfg := range []Options{Optimized(), NaivePackrat(), Backtracking()} {
		prog := build(t, voidCalcGrammar, cfg)
		s := prog.NewSession()
		if _, _, err := s.Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatalf("cfg %v: %v", cfg, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := s.Parse(context.Background(), src, ParseOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %v: steady-state session parse allocated %.1f objects/op, want 0", cfg, allocs)
		}
	}
}

// TestSteadyStateAllocsCalc bounds the valued calc grammar: the pooled
// path may allocate only for semantic values (amortized through slabs),
// which must be a small fraction of what a cold parse allocates.
func TestSteadyStateAllocsCalc(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4*5+", 200) + "6"
	src := text.NewSource("in", input)
	prog := build(t, calcGrammar, Optimized())

	cold := testing.AllocsPerRun(10, func() {
		if _, _, err := prog.NewSession().Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	s := prog.NewSession()
	s.Parse(context.Background(), src, ParseOptions{})
	warm := testing.AllocsPerRun(10, func() {
		if _, _, err := s.Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if warm > cold/2 {
		t.Errorf("warm session allocs = %.1f, cold = %.1f: want warm <= cold/2", warm, cold)
	}
}

func TestParseAllOrderContract(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	var srcs []*text.Source
	var wantOK []bool
	for i := 0; i < 64; i++ {
		in := fmt.Sprintf("%d+%d*%d", i, i+1, i+2)
		ok := true
		if i%7 == 3 { // sprinkle failures through the batch
			in += "+"
			ok = false
		}
		srcs = append(srcs, text.NewSource(fmt.Sprintf("in%d", i), in))
		wantOK = append(wantOK, ok)
	}
	for _, workers := range []int{0, 1, 3, 128} {
		results := prog.ParseAll(context.Background(), srcs, workers, Limits{})
		if len(results) != len(srcs) {
			t.Fatalf("workers=%d: %d results for %d inputs", workers, len(results), len(srcs))
		}
		for i, r := range results {
			if (r.Err == nil) != wantOK[i] {
				t.Fatalf("workers=%d input %d: err = %v, want ok=%v", workers, i, r.Err, wantOK[i])
			}
			if r.Err != nil {
				continue
			}
			want, _, err := prog.NewSession().Parse(context.Background(), srcs[i], ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !ast.Equal(r.Value, want) {
				t.Fatalf("workers=%d input %d: value %s, want %s",
					workers, i, ast.Format(r.Value), ast.Format(want))
			}
		}
	}
	if results := prog.ParseAll(context.Background(), nil, 4, Limits{}); len(results) != 0 {
		t.Fatalf("empty batch: %d results", len(results))
	}
}

func TestTotalStats(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	srcs := []*text.Source{
		text.NewSource("a", "1+2"),
		text.NewSource("b", "3*4*5"),
	}
	results := prog.ParseAll(context.Background(), srcs, 1, Limits{})
	total := TotalStats(results)
	var want Stats
	for _, src := range srcs {
		_, st, err := prog.NewSession().Parse(context.Background(), src, ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}
	if total != want {
		t.Fatalf("total = %v, want %v", total, want)
	}
	if total.Calls <= results[0].Stats.Calls {
		t.Fatal("aggregate must exceed a single input's counters")
	}
}

// TestConcurrentParseRace hammers one Program from many goroutines —
// pooled Parse calls interleaved with ParseAll batches — to prove under
// -race that the Program is read-only after compile and sessions never
// leak across goroutines.
func TestConcurrentParseRace(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	inputs := []string{"1+2*3", "(1+2)*(3+4)", "7", "1+", "((9))", ""}
	var srcs []*text.Source
	for i, in := range inputs {
		srcs = append(srcs, text.NewSource(fmt.Sprintf("in%d", i), in))
	}
	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					prog.Parse(context.Background(), srcs[(g+i)%len(srcs)], ParseOptions{})
				case 1:
					s := prog.NewSession()
					s.Parse(context.Background(), srcs[(g+i)%len(srcs)], ParseOptions{})
					s.Parse(context.Background(), srcs[(g+i+1)%len(srcs)], ParseOptions{})
				default:
					results := prog.ParseAll(context.Background(), srcs, 3, Limits{})
					if len(results) != len(srcs) {
						t.Errorf("batch returned %d results", len(results))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
