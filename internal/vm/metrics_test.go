package vm

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"modpeg/internal/text"
)

// TestMetricsRegistryCounts drives the pooled and session parse paths
// and checks the process-wide registry's bookkeeping identities.
func TestMetricsRegistryCounts(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ResetMetrics()

	ok := text.NewSource("in", "1+2*(3-4)")
	bad := text.NewSource("in", "1+*")
	for i := 0; i < 3; i++ {
		if _, _, err := prog.Parse(context.Background(), ok, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := prog.Parse(context.Background(), bad, ParseOptions{}); err == nil {
		t.Fatal("expected syntax error")
	}
	s := prog.NewSession()
	for i := 0; i < 2; i++ {
		if _, _, err := s.Parse(context.Background(), ok, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	m := Metrics()
	if m.ParsesStarted != 6 {
		t.Errorf("ParsesStarted = %d, want 6", m.ParsesStarted)
	}
	if m.ParsesCompleted != 5 || m.ParsesFailed != 1 {
		t.Errorf("completed/failed = %d/%d, want 5/1", m.ParsesCompleted, m.ParsesFailed)
	}
	if m.ParsesStarted != m.ParsesCompleted+m.ParsesFailed {
		t.Errorf("started %d != completed %d + failed %d",
			m.ParsesStarted, m.ParsesCompleted, m.ParsesFailed)
	}
	// Four pooled parses: four checkouts, at least one of which built a
	// fresh parser.
	if m.PoolGets != 4 {
		t.Errorf("PoolGets = %d, want 4", m.PoolGets)
	}
	if m.PoolNews < 1 || m.PoolNews > m.PoolGets {
		t.Errorf("PoolNews = %d, want in [1, %d]", m.PoolNews, m.PoolGets)
	}
	// Warm rewinds: the session's second parse always resets; pooled
	// parses after the first reset whenever the pool reuses a parser.
	if m.SessionResets < 1 || m.SessionResets > m.ParsesStarted-1 {
		t.Errorf("SessionResets = %d, want in [1, %d]", m.SessionResets, m.ParsesStarted-1)
	}
	// The chunked memo engine carved arena slabs, recycled them on
	// resets, and observed a nonzero peak footprint.
	if m.ArenaBytesCarved <= 0 {
		t.Errorf("ArenaBytesCarved = %d, want > 0", m.ArenaBytesCarved)
	}
	if m.ArenaBytesRecycled <= 0 {
		t.Errorf("ArenaBytesRecycled = %d, want > 0", m.ArenaBytesRecycled)
	}
	if m.PeakMemoBytes <= 0 {
		t.Errorf("PeakMemoBytes = %d, want > 0", m.PeakMemoBytes)
	}

	ResetMetrics()
	z := Metrics()
	if z.ParsesStarted != 0 || z.ParsesCompleted != 0 || z.ParsesFailed != 0 ||
		z.PoolGets != 0 || z.PoolNews != 0 || z.SessionResets != 0 ||
		z.ArenaBytesCarved != 0 || z.ArenaBytesRecycled != 0 || z.PeakMemoBytes != 0 ||
		z.LimitStops != 0 || z.MemoSheds != 0 || z.PanicsContained != 0 {
		t.Errorf("ResetMetrics left %+v", z)
	}
	if z.ParseDurationNS.Count != 0 || z.ParseInputBytes.Count != 0 {
		t.Errorf("ResetMetrics left histogram counts %d/%d",
			z.ParseDurationNS.Count, z.ParseInputBytes.Count)
	}
	if len(z.Grammars) != 0 {
		t.Errorf("ResetMetrics left grammar counters %+v", z.Grammars)
	}
}

// TestMetricsHistograms drives parses of known sizes and checks the
// latency and input-size histograms' counts, sums, and cumulative
// bucket structure.
func TestMetricsHistograms(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ResetMetrics()

	inputs := []string{"1+2*(3-4)", "1", "1+*"}
	var bytes int64
	for _, in := range inputs {
		prog.Parse(context.Background(), text.NewSource("in", in), ParseOptions{}) // the syntax error counts too
		bytes += int64(len(in))
	}

	m := Metrics()
	for name, h := range map[string]HistogramSnapshot{
		"parse_duration_ns": m.ParseDurationNS, "parse_input_bytes": m.ParseInputBytes,
	} {
		if h.Count != int64(len(inputs)) {
			t.Errorf("%s count = %d, want %d", name, h.Count, len(inputs))
		}
		if len(h.Buckets) == 0 {
			t.Fatalf("%s has no buckets", name)
		}
		prev := int64(0)
		for i, b := range h.Buckets {
			if b.Count < prev {
				t.Errorf("%s bucket %d not cumulative: %d after %d", name, i, b.Count, prev)
			}
			if i > 0 && b.UpperBound <= h.Buckets[i-1].UpperBound {
				t.Errorf("%s bounds not ascending at %d", name, i)
			}
			prev = b.Count
		}
		if last := h.Buckets[len(h.Buckets)-1].Count; last > h.Count {
			t.Errorf("%s last bucket %d exceeds count %d", name, last, h.Count)
		}
	}
	if m.ParseDurationNS.Sum <= 0 {
		t.Errorf("duration sum = %d, want > 0", m.ParseDurationNS.Sum)
	}
	if m.ParseInputBytes.Sum != bytes {
		t.Errorf("input-bytes sum = %d, want %d", m.ParseInputBytes.Sum, bytes)
	}
	// All three inputs are tiny: every one lands at or below the 64-byte
	// bound, so the first bucket is already full.
	if got := m.ParseInputBytes.Buckets[0]; got.UpperBound != 64 || got.Count != int64(len(inputs)) {
		t.Errorf("input-bytes first bucket = %+v, want le=64 count=%d", got, len(inputs))
	}
	ResetMetrics()
}

// TestMetricsPerGrammar checks the labeled counter sets: outcomes land
// under the program's label, SetLabel re-points them, and zero-count
// labels stay out of snapshots.
func TestMetricsPerGrammar(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ResetMetrics()

	ok := text.NewSource("in", "1+2*3")
	bad := text.NewSource("in", "1+*")
	prog.Parse(context.Background(), ok, ParseOptions{})
	prog.Parse(context.Background(), ok, ParseOptions{})
	prog.Parse(context.Background(), bad, ParseOptions{})

	label := prog.Label()
	if label == "" {
		t.Fatal("program has no label")
	}
	g, present := Metrics().Grammars[label]
	if !present {
		t.Fatalf("no counters under label %q: %+v", label, Metrics().Grammars)
	}
	if g.ParsesStarted != 3 || g.ParsesCompleted != 2 || g.ParsesFailed != 1 {
		t.Errorf("grammar counters = %+v, want 3 started / 2 completed / 1 failed", g)
	}
	if want := int64(2*len(ok.Content()) + len(bad.Content())); g.InputBytes != want {
		t.Errorf("grammar input bytes = %d, want %d", g.InputBytes, want)
	}

	prog.SetLabel("renamed")
	prog.Parse(context.Background(), ok, ParseOptions{})
	m := Metrics()
	if got := m.Grammars["renamed"]; got.ParsesStarted != 1 || got.ParsesCompleted != 1 {
		t.Errorf("renamed counters = %+v, want 1 started / 1 completed", got)
	}
	if got := m.Grammars[label]; got.ParsesStarted != 3 {
		t.Errorf("original label drifted after SetLabel: %+v", got)
	}
	ResetMetrics()
}

// TestSetTelemetry checks the ablation toggle: with telemetry off the
// scalar counters still advance but histograms and per-grammar sets
// record nothing.
func TestSetTelemetry(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	prev := SetTelemetry(false)
	defer SetTelemetry(prev)
	ResetMetrics()

	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", "1+2*3"), ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	m := Metrics()
	if m.ParsesStarted != 1 || m.ParsesCompleted != 1 {
		t.Errorf("scalar counters = %d/%d, want 1/1", m.ParsesStarted, m.ParsesCompleted)
	}
	if m.ParseDurationNS.Count != 0 || m.ParseInputBytes.Count != 0 {
		t.Errorf("histograms recorded %d/%d observations with telemetry off",
			m.ParseDurationNS.Count, m.ParseInputBytes.Count)
	}
	if len(m.Grammars) != 0 {
		t.Errorf("grammar counters recorded with telemetry off: %+v", m.Grammars)
	}
	ResetMetrics()
}

// TestMetricsPeakMonotone checks the high-water mark: a small parse
// after a large one must not lower the peak.
func TestMetricsPeakMonotone(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ResetMetrics()
	big := strings.Repeat("(1+2)*3-", 300) + "4"
	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", big), ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	peak := Metrics().PeakMemoBytes
	if peak <= 0 {
		t.Fatalf("peak = %d after large parse", peak)
	}
	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", "1"), ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := Metrics().PeakMemoBytes; got != peak {
		t.Errorf("peak moved from %d to %d after a smaller parse", peak, got)
	}
	ResetMetrics()
}

// TestMetricsSnapshotJSON pins the scrape format's key names.
func TestMetricsSnapshotJSON(t *testing.T) {
	data, err := MetricsSnapshot{ParsesStarted: 7, PeakMemoBytes: 9}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"parses_started", "parses_completed", "parses_failed",
		"pool_gets", "pool_news", "session_resets",
		"arena_bytes_carved", "arena_bytes_recycled", "peak_memo_bytes",
		"limit_stops", "memo_sheds", "panics_contained",
		"parse_duration_ns", "parse_input_bytes",
	} {
		if _, present := m[key]; !present {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
	if m["parses_started"] != float64(7) || m["peak_memo_bytes"] != float64(9) {
		t.Errorf("snapshot values drifted: %v", m)
	}
	for _, key := range []string{"parse_duration_ns", "parse_input_bytes"} {
		h, ok := m[key].(map[string]any)
		if !ok {
			t.Fatalf("%s is %T, want object", key, m[key])
		}
		for _, field := range []string{"count", "sum", "buckets"} {
			if _, present := h[field]; !present {
				t.Errorf("%s missing %q", key, field)
			}
		}
	}
}

// TestHistogramOverflowBucket pins the top-of-ladder behavior: an
// observation beyond the last finite bound must land only in the
// implicit +Inf bucket (Count), never in a finite one, and must still
// contribute to Sum.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	for _, v := range []int64{5, 15, 20, 1_000_000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 5+15+20+1_000_000 {
		t.Errorf("sum = %d", s.Sum)
	}
	// Cumulative finite buckets: le=10 -> 1, le=20 -> 3 (the bound is
	// inclusive); the overflow observation appears only in Count.
	if s.Buckets[0].Count != 1 || s.Buckets[1].Count != 3 {
		t.Errorf("buckets = %+v, want cumulative [1 3]", s.Buckets)
	}
	// A tail quantile that falls into the +Inf bucket clamps to the last
	// finite bound — a lower bound, not an invented value.
	if q := s.Quantile(1.0); q != 20 {
		t.Errorf("Quantile(1.0) = %d, want clamp to 20", q)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Buckets[1].Count != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}

// TestHistogramQuantileBoundaries pins the interpolation at exact
// bucket boundaries, where off-by-one rank arithmetic typically hides.
func TestHistogramQuantileBoundaries(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 400})
	// 10 observations in (0,100], none elsewhere.
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	s := h.Snapshot()
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("Quantile(1.0) = %d, want the bucket's upper bound 100", q)
	}
	if q := s.Quantile(0.5); q != 50 {
		t.Errorf("Quantile(0.5) = %d, want midpoint 50", q)
	}
	// Split 10/10 across the first two buckets: the median sits exactly
	// on the boundary between them.
	h2 := NewHistogram([]int64{100, 200, 400})
	for i := 0; i < 10; i++ {
		h2.Observe(50)
		h2.Observe(150)
	}
	s2 := h2.Snapshot()
	if q := s2.Quantile(0.5); q != 100 {
		t.Errorf("boundary Quantile(0.5) = %d, want 100", q)
	}
	if q := s2.Quantile(0.75); q != 150 {
		t.Errorf("Quantile(0.75) = %d, want 150", q)
	}
	// Degenerate cases.
	if q := (HistogramSnapshot{}).Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %d, want 0", q)
	}
	if q := s.Quantile(-1); q != s.Quantile(0) {
		t.Errorf("q<0 not clamped")
	}
	if q := s.Quantile(2); q != s.Quantile(1) {
		t.Errorf("q>1 not clamped")
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; with -race this checks Observe's lock-freedom claim, and
// the final snapshot checks no observation was lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64((w*perWorker + i) % 2000))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	if got := s.Buckets[len(s.Buckets)-1].Count; got >= s.Count || got == 0 {
		t.Errorf("finite-bucket total %d vs count %d: overflow split missing", got, s.Count)
	}
}

// TestRuntimeGaugesAndInflight checks the snapshot's runtime gauges and
// the serve layer's in-flight bracket.
func TestRuntimeGaugesAndInflight(t *testing.T) {
	m := Metrics()
	if m.Goroutines <= 0 {
		t.Errorf("goroutines = %d", m.Goroutines)
	}
	if m.HeapBytes <= 0 {
		t.Errorf("heap_bytes = %d", m.HeapBytes)
	}
	if m.UptimeNS <= 0 {
		t.Errorf("uptime_ns = %d", m.UptimeNS)
	}
	base := Metrics().InflightRequests
	if got := AddInflight(1); got != base+1 {
		t.Errorf("AddInflight(1) = %d, want %d", got, base+1)
	}
	if m := Metrics(); m.InflightRequests != base+1 {
		t.Errorf("snapshot inflight = %d, want %d", m.InflightRequests, base+1)
	}
	AddInflight(-1)
	if m := Metrics(); m.InflightRequests != base {
		t.Errorf("inflight after bracket = %d, want %d", m.InflightRequests, base)
	}
	// ResetMetrics must leave the live gauge alone.
	AddInflight(1)
	ResetMetrics()
	if m := Metrics(); m.InflightRequests != base+1 {
		t.Errorf("ResetMetrics zeroed the live in-flight gauge: %d", m.InflightRequests)
	}
	AddInflight(-1)
}
