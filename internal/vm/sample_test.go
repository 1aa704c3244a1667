package vm

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"modpeg/internal/text"
)

// sampleTestProg builds a calc program with its own label and arranges
// for its rolling profile to be dropped when the test ends (the sampled
// registry is process-global).
func sampleTestProg(t *testing.T, label string) *Program {
	t.Helper()
	prog := build(t, calcGrammar, Optimized())
	prog.SetLabel(label)
	t.Cleanup(ResetSampledProfiles)
	return prog
}

func TestSampledProfilingAggregates(t *testing.T) {
	prog := sampleTestProg(t, "test/sample-agg@v1")
	prog.SetSampling(1) // every pooled checkout
	src := text.NewSource("in", "(1+2)*3-4")
	const parses = 5
	for i := 0; i < parses; i++ {
		if _, _, err := prog.Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sp, ok := SampledProfileFor("test/sample-agg@v1")
	if !ok {
		t.Fatal("no sampled profile recorded at rate 1")
	}
	if sp.Parses != parses {
		t.Errorf("sampled parses = %d, want %d", sp.Parses, parses)
	}
	if len(sp.Productions) == 0 {
		t.Fatal("sampled profile has no production rows")
	}
	// Rows are hottest-first and aggregated across all sampled parses.
	var calls int64
	for i, row := range sp.Productions {
		calls += row.Calls
		if i > 0 && row.SelfNanos > sp.Productions[i-1].SelfNanos {
			t.Errorf("row %d (%s) hotter than row %d: not sorted by self time", i, row.Name, i-1)
		}
	}
	if calls == 0 {
		t.Error("aggregated rows show zero production calls")
	}
	// The JSON form (the /debug/profiles payload) round-trips.
	data, err := SampledProfilesJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []SampledProfile
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("SampledProfilesJSON does not round-trip: %v", err)
	}
}

func TestSamplingRateOneInN(t *testing.T) {
	prog := sampleTestProg(t, "test/sample-rate@v1")
	prog.SetSampling(4)
	src := text.NewSource("in", "1+2")
	for i := 0; i < 8; i++ { // checkouts tick 1..8; ticks 4 and 8 sample
		if _, _, err := prog.Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sp, ok := SampledProfileFor("test/sample-rate@v1")
	if !ok {
		t.Fatal("no sampled profile recorded at rate 4")
	}
	if sp.Parses != 2 {
		t.Errorf("sampled parses = %d, want 2 of 8 at rate 4", sp.Parses)
	}
}

func TestSamplingOffRecordsNothing(t *testing.T) {
	prog := sampleTestProg(t, "test/sample-off@v1")
	src := text.NewSource("in", "1+2")
	for i := 0; i < 4; i++ {
		if _, _, err := prog.Parse(context.Background(), src, ParseOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := SampledProfileFor("test/sample-off@v1"); ok {
		t.Error("sampling off (default) still recorded a profile")
	}
	if prog.Sampling() != 0 {
		t.Errorf("Sampling() = %d, want 0", prog.Sampling())
	}
	prog.SetSampling(-3) // negative clamps to off
	if prog.Sampling() != 0 {
		t.Errorf("Sampling() after SetSampling(-3) = %d, want 0", prog.Sampling())
	}
}

func TestResetSampledProfiles(t *testing.T) {
	prog := sampleTestProg(t, "test/sample-reset@v1")
	prog.SetSampling(1)
	if _, _, err := prog.Parse(context.Background(), text.NewSource("in", "1+2"), ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := SampledProfileFor("test/sample-reset@v1"); !ok {
		t.Fatal("profile missing before reset")
	}
	ResetSampledProfiles()
	if _, ok := SampledProfileFor("test/sample-reset@v1"); ok {
		t.Error("profile survived ResetSampledProfiles")
	}
}

// traceRecorder is a Hook that also implements TraceContextHook.
type traceRecorder struct {
	recordingHook
	traceIDs []string
}

func (tr *traceRecorder) OnTraceContext(traceID string) { tr.traceIDs = append(tr.traceIDs, traceID) }

func TestTraceContextHookNotified(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	src := text.NewSource("in", "1+2*3")
	rec := &traceRecorder{recordingHook: recordingHook{t: t}}
	ctx := context.Background()
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if _, _, err := prog.Parse(ctx, src, ParseOptions{Hook: rec, TraceID: traceID}); err != nil {
		t.Fatal(err)
	}
	if len(rec.traceIDs) != 1 || rec.traceIDs[0] != traceID {
		t.Fatalf("hook saw trace IDs %v, want exactly [%s]", rec.traceIDs, traceID)
	}
	// An untraced parse fires no notification, and a hook without the
	// optional interface is simply not called.
	rec.traceIDs = nil
	if _, _, err := prog.Parse(ctx, src, ParseOptions{Hook: rec}); err != nil {
		t.Fatal(err)
	}
	if len(rec.traceIDs) != 0 {
		t.Errorf("empty trace ID still notified: %v", rec.traceIDs)
	}
	if _, _, err := prog.Parse(ctx, src, ParseOptions{Hook: &recordingHook{t: t}, TraceID: traceID}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram([]int64{10, 20})
	h.Observe(15)
	h.h.exemplar(15, "aaaabbbbccccdddd", "g@v1")
	h.Observe(1000)
	h.h.exemplar(1000, "eeeeffff00001111", "g@v1")
	s := h.Snapshot()
	if e := s.Buckets[1].Exemplar; e == nil || e.TraceID != "aaaabbbbccccdddd" || e.Value != 15 {
		t.Errorf("bucket le=20 exemplar = %+v, want trace aaaabbbbccccdddd value 15", s.Buckets[1].Exemplar)
	}
	if s.Buckets[0].Exemplar != nil {
		t.Errorf("bucket le=10 has stray exemplar %+v", s.Buckets[0].Exemplar)
	}
	if s.InfExemplar == nil || s.InfExemplar.TraceID != "eeeeffff00001111" {
		t.Errorf("+Inf exemplar = %+v, want trace eeeeffff00001111", s.InfExemplar)
	}
	h.Reset()
	if s := h.Snapshot(); s.Buckets[1].Exemplar != nil || s.InfExemplar != nil {
		t.Error("Reset left exemplars behind")
	}
}

// TestHistogramObserveResetSnapshotRace hammers observe, reset, and
// snapshot concurrently. Under -race this checks the lock-free claims;
// in any mode it checks the snapshot's internal consistency: cumulative
// bucket counts must be monotone and never exceed Count. (A snapshot
// racing a reset once could observe bucket sums above its Count — the
// count was loaded before the buckets were summed — rendering a
// non-monotone exposition; snapshot now clamps Count to the bucket
// total.)
func TestHistogramObserveResetSnapshotRace(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(int64((w*7919 + i) % 2000))
				if i%64 == 0 {
					h.h.exemplar(int64(i%2000), "aaaabbbbccccdddd", "g")
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%100 == 0 {
				h.Reset()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var prev int64
		for _, b := range s.Buckets {
			if b.Count < prev {
				t.Fatalf("snapshot %d: cumulative buckets not monotone: %v", i, s.Buckets)
			}
			prev = b.Count
		}
		if prev > s.Count {
			t.Fatalf("snapshot %d: finite-bucket total %d exceeds Count %d (torn snapshot)", i, prev, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}
