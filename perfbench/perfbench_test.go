package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"modpeg"
)

// spin busy-waits for d, so an injected delay is CPU time like a real
// layer's, not a sleep the scheduler may stretch.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestTraceAttributesInjectedDelay injects a delay into one fake layer
// at a time and checks that only that layer's span carries it: not the
// other stages, and not the handler's self time.
func TestTraceAttributesInjectedDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	for slow := range stageNames {
		t.Run(stageNames[slow], func(t *testing.T) {
			var layers [len(stageNames)]func()
			for i := range layers {
				layers[i] = func() {
					if i == slow {
						spin(delay)
					}
				}
			}
			// The fake server runs every layer, as the real handler does.
			handler := func() {
				for _, l := range layers {
					l()
				}
			}
			tr := &tracer{t0: time.Now()}
			for req := 1; req <= 9; req++ {
				tr.traceRequest(req, stages{handler: handler, stage: layers})
			}
			for _, s := range tr.spans {
				if s.Name != spanHandler && s.Parent == 0 {
					t.Fatalf("stage span %s has no parent", s.Name)
				}
			}
			times := layerTimes(tr.spans)
			if got := p50(times[spanHandler]); got < delay {
				t.Errorf("handler p50 %v, want at least the injected %v", got, delay)
			}
			for _, name := range append(stageNames[:], spanSelf) {
				got := p50(times[name])
				if name == stageNames[slow] && got < delay {
					t.Errorf("%s p50 %v, want at least the injected %v", name, got, delay)
				}
				if name != stageNames[slow] && got > delay/5 {
					t.Errorf("%s p50 %v carries the delay injected into %s", name, got, stageNames[slow])
				}
			}
		})
	}
}

// TestSpansShareRequestIDs checks that each request's spans carry its id.
func TestSpansShareRequestIDs(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	var noop [len(stageNames)]func()
	for i := range noop {
		noop[i] = func() {}
	}
	tr.traceRequest(7, stages{handler: func() {}, stage: noop})
	tr.traceRequest(8, stages{handler: func() {}, stage: noop})
	if len(tr.spans) != 2*(1+len(stageNames)) {
		t.Fatalf("%d spans, want %d", len(tr.spans), 2*(1+len(stageNames)))
	}
	for i, s := range tr.spans {
		if want := 7 + i/(1+len(stageNames)); s.Req != want {
			t.Errorf("span %d (%s) has request id %d, want %d", i, s.Name, s.Req, want)
		}
	}
}

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	return d
}

// TestPercentileNeedsTenBeyond checks the rule that a reported tail
// percentile has at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, beyond, err := percentile(durations(999), 0.99); err == nil {
		t.Errorf("p99 of 999 samples accepted with %d beyond", beyond)
	}
	v, beyond, err := percentile(durations(1000), 0.99)
	if err != nil || beyond != 10 || v != 990 {
		t.Errorf("p99 of 1000 samples = %v with %d beyond (%v), want 990 with 10", v, beyond, err)
	}
	if _, beyond, err := percentile(durations(1500), 0.99); err != nil || beyond < 10 {
		t.Errorf("p99 of 1500 samples: %d beyond, %v", beyond, err)
	}
	if v, _, err := percentile(durations(3), 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 3 samples = %v, %v; want 2", v, err)
	}
}

// TestQuartilesMatchPython checks the quartiles against Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSameSeedSameSequence checks that a workload is a function of its
// seed and run length alone.
func TestSameSeedSameSequence(t *testing.T) {
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			a, err := makeWorkload(spec, 42, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := makeWorkload(spec, 42, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two builds with seed 42 differ")
			}
			c, err := makeWorkload(spec, 43, 2)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.items, c.items) || reflect.DeepEqual(a.open, c.open) {
				t.Error("seeds 42 and 43 give the same inputs or order")
			}
			if n := parses(a.open); n < minOpenParses {
				t.Errorf("open phase has %d parses, want at least %d", n, minOpenParses)
			}
		})
	}
}

// TestJavaOmitSendsJavaValuedSequence checks that the two java
// workloads differ only in omit_value.
func TestJavaOmitSendsJavaValuedSequence(t *testing.T) {
	valued, err := makeWorkload(specs[0], 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	omit, err := makeWorkload(specs[1], 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(valued.closed, omit.closed) || !reflect.DeepEqual(valued.open, omit.open) {
		t.Fatal("java-omit sends another sequence than java-valued")
	}
	for i := range valued.items {
		if valued.items[i].input != omit.items[i].input || valued.items[i].omit || !omit.items[i].omit {
			t.Fatalf("item %d differs in more than omit_value", i)
		}
	}
}

// TestTenantMixErrorShare checks the tenant cycle: 100 parses, five of
// them corrupted inputs, one upload.
func TestTenantMixErrorShare(t *testing.T) {
	w, err := makeWorkload(specs[2], 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	var parses, errs, uploads int
	for _, o := range w.closed {
		switch {
		case o.kind == opUpload:
			uploads++
		case w.items[o.item].wantErr:
			errs++
			parses++
		default:
			parses++
		}
	}
	if parses%100 != 0 || errs*100 != parses*tenantErrorsPerCycle || uploads*100 != parses {
		t.Errorf("%d parses, %d corrupted, %d uploads: want 5%% corrupted and one upload per 100", parses, errs, uploads)
	}
}

// TestOracleWalker checks the structural walker against the wire form of
// a small parse, and that it reports a changed token.
func TestOracleWalker(t *testing.T) {
	p, err := modpeg.New("calc.core", modpeg.WithEngine(modpeg.EngineNaivePackrat()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Parse("request", "1+2")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := modpeg.ValueToJSONCompact(v) // a fixture here, never in the benchmark
	if err != nil {
		t.Fatal(err)
	}
	decode := func(s string) any {
		var x any
		dec := json.NewDecoder(bytes.NewReader([]byte(s)))
		dec.UseNumber()
		if err := dec.Decode(&x); err != nil {
			t.Fatal(err)
		}
		return x
	}
	if err := sameValue(v, decode(wire), "value"); err != nil {
		t.Fatalf("walker rejects the encoder's own output: %v", err)
	}
	tampered := bytes.Replace([]byte(wire), []byte(`"2"`), []byte(`"3"`), 1)
	if err := sameValue(v, decode(string(tampered)), "value"); err == nil {
		t.Error("walker accepts a value with a changed token")
	}
}

func TestNormalizedLength(t *testing.T) {
	a := []byte(`{"grammar":"g","tenant":"t","version":9,"value":{"kind":"token","text":"x"},"stats":{"calls":1},"duration_ns":999}`)
	b := []byte(`{"grammar":"g","tenant":"t","version":10,"value":{"kind":"token","text":"x"},"stats":{"calls":1},"duration_ns":1000123}`)
	if normalizedLength(a) != normalizedLength(b) {
		t.Errorf("normalized lengths %d and %d differ", normalizedLength(a), normalizedLength(b))
	}
	c := []byte(`{"grammar":"g","tenant":"t","version":9,"value":{"kind":"token","text":"xy"},"stats":{"calls":1},"duration_ns":999}`)
	if normalizedLength(a) == normalizedLength(c) {
		t.Error("a longer value has the same normalized length")
	}
}

func TestRankEdges(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1, 0.5, 1}, {2, 0.5, 1}, {100, 0.99, 99}, {1000, 0.99, 990}, {1001, 0.99, 991}} {
		if got := rank(c.n, c.q); got != c.want {
			t.Errorf("rank(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(func() float64 { _, m, _ := quartiles(nil); return m }()) {
		t.Error("median of no values is not NaN")
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics a run reports are
// the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode     string
		declared []struct{ Name, Unit string }
		reported []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, a run reports %d", c.mode, len(c.declared), len(c.reported))
			continue
		}
		for i, d := range c.declared {
			if r := c.reported[i]; d.Name != r.name || d.Unit != r.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", c.mode, i, d.Name, d.Unit, r.name, r.unit)
			}
		}
	}
	if len(spec.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(spec.Workloads), len(specs))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != specs[i].name {
			t.Errorf("workload %d: declared %s, perfbench has %s", i, wl.Name, specs[i].name)
		}
	}
}
