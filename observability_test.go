package modpeg

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestParseWithProfileFacade checks a profiled parse on a bundled
// grammar: the profile's call total must equal the engine's own
// Stats.Calls, and the parse result must not drift from Parse.
func TestParseWithProfileFacade(t *testing.T) {
	p, err := New("java.core")
	if err != nil {
		t.Fatal(err)
	}
	input := "class A { int f(int x) { return x * (x + 1); } }"
	pr := p.NewProfiler()
	v, stats, err := p.ParseWith(context.Background(), "in", input, ParseOptions{Hook: pr})
	if err != nil {
		t.Fatal(err)
	}
	prof := pr.Profile()
	want, err := p.Parse("in", input)
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(v, want) {
		t.Fatalf("profiled value drift: %s vs %s", FormatValue(v), FormatValue(want))
	}
	if got := prof.TotalCalls(); got != int64(stats.Calls) {
		t.Errorf("profile calls %d, stats calls %d", got, stats.Calls)
	}
	report := prof.Report(10)
	if !strings.Contains(report, "production") || !strings.Contains(report, "total") {
		t.Fatalf("malformed report:\n%s", report)
	}
}

// TestProfilerHookFacade aggregates one Profiler across parses driven
// through the public hook seam.
func TestProfilerHookFacade(t *testing.T) {
	p, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	pr := p.NewProfiler()
	var want int64
	for _, in := range []string{"1+2**3", "4*5", "(1+2)*(3-4)"} {
		_, st, err := p.ParseWith(context.Background(), "in", in, ParseOptions{Hook: pr})
		if err != nil {
			t.Fatal(err)
		}
		want += int64(st.Calls)
	}
	if got := pr.Profile().TotalCalls(); got != want {
		t.Errorf("aggregated calls %d, want %d", got, want)
	}
}

// TestProfiledBatchRecipe runs the documented recipe for profiling a
// concurrent batch — one Profiler per goroutine, snapshots merged with
// Profile.Add — and cross-checks the merged profile against the
// per-input stats. Under -race it also shows the goroutines' profilers
// share no state.
func TestProfiledBatchRecipe(t *testing.T) {
	p, err := New("json.value")
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for i := 0; i < 20; i++ {
		inputs = append(inputs, fmt.Sprintf(`{"k%d": [%d, true, "v"]}`, i, i))
	}
	inputs = append(inputs, "not json")
	const workers = 4
	results := make([]BatchResult, len(inputs))
	total := p.NewProfiler().Profile() // empty, this grammar's rows
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := p.NewProfiler()
			for i := w; i < len(inputs); i += workers {
				v, st, err := p.ParseWith(context.Background(), "doc", inputs[i], ParseOptions{Hook: pr})
				results[i] = BatchResult{Value: v, Stats: st, Err: err}
			}
			mu.Lock()
			total.Add(pr.Profile())
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if results[len(results)-1].Err == nil {
		t.Fatal("invalid input must fail in place")
	}
	if got, want := total.TotalCalls(), int64(BatchStats(results).Calls); got != want {
		t.Errorf("merged profile calls %d, stats calls %d", got, want)
	}
}

// TestMetricsFacade exercises the registry snapshot through the public
// API.
func TestMetricsFacade(t *testing.T) {
	p, err := New("calc.core")
	if err != nil {
		t.Fatal(err)
	}
	ResetMetrics()
	if _, err := p.Parse("in", "1+2*3"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse("in", "1+"); err == nil {
		t.Fatal("expected syntax error")
	}
	m := Metrics()
	if m.ParsesStarted != 2 || m.ParsesCompleted != 1 || m.ParsesFailed != 1 {
		t.Errorf("metrics = %+v, want 2 started / 1 completed / 1 failed", m)
	}
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["parses_started"] != float64(2) {
		t.Errorf("JSON parses_started = %v", decoded["parses_started"])
	}
	if _, present := decoded["parse_duration_ns"]; !present {
		t.Error("JSON snapshot missing parse_duration_ns histogram")
	}
	ResetMetrics()
}
