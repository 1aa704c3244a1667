package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"modpeg"
	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/registry"
	"modpeg/internal/serve"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
)

// The traced run replays a workload in-process on one goroutine against
// a serve.New / registry.New pair configured like the spawned server. For
// each request it records a span around Handler().ServeHTTP, then calls
// each stage of the request again through its layer's public function,
// one span per call. A request's spans share its id; the stage spans name
// the handler span as their parent. Spans stay in memory until the run
// ends and are then written as JSON lines.

// span is one timed call.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
}

// record times fn as a span of request req and returns it.
func (t *tracer) record(req, parent int, name string, fn func()) span {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	s := span{Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start), End: int64(end)}
	t.spans = append(t.spans, s)
	return s
}

// Span names of a request, stages in the order the handler runs them.
const (
	spanHandler = "serve.handler"
	spanDecode  = "serve.decode"
	spanAcquire = "registry.acquire" // the lease, or the static route when the request names no tenant
	spanParse   = "vm.parse"
	spanEncode  = "ast.encode" // the value encoding, or its skipped branch under omit_value
	spanWrite   = "serve.write"
	spanSelf    = "serve.self" // derived: handler minus stages
	spanUpload  = "registry.upload"
)

var stageNames = [...]string{spanDecode, spanAcquire, spanParse, spanEncode, spanWrite}

// stages is one request's calls: the whole handler, then each layer's
// stage on its own. between, when set, runs after stage i's span closes
// and before the next opens, so measuring it costs no span any time.
type stages struct {
	handler func()
	stage   [len(stageNames)]func()
	between func(i int)
}

// traceRequest records the handler span and one child span per stage.
func (t *tracer) traceRequest(req int, st stages) {
	h := t.record(req, 0, spanHandler, st.handler)
	for i, fn := range st.stage {
		t.record(req, h.ID, stageNames[i], fn)
		if st.between != nil {
			st.between(i)
		}
	}
}

// layerTimes groups span durations by name, sorted, adding each
// request's self time in the handler: its handler span minus the spans
// of its stages.
func layerTimes(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	self := map[int]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
		if s.Name == spanHandler {
			self[s.ID] += s.dur()
		} else if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.dur()
		}
	}
	for _, d := range self {
		out[spanSelf] = append(out[spanSelf], d)
	}
	for _, d := range out {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return out
}

// handlerDoer serves requests in-process through a recorder.
type handlerDoer struct{ h http.Handler }

func (d handlerDoer) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	buf.Reset()
	buf.Write(rec.Body.Bytes())
	return rec.Code, nil
}

// serverLimits are `modpeg serve`'s default per-request budgets.
var serverLimits = modpeg.Limits{
	MaxInputBytes:    4 << 20,
	MaxMemoBytes:     64 << 20,
	MaxCallDepth:     100000,
	MaxParseDuration: 5 * time.Second,
}

// buildReps is how often the traced run composes, optimizes and
// compiles each workload grammar; it reports the median of each.
const buildReps = 5

// bundledGrammars lists the distinct grammars of w's inputs.
func bundledGrammars(w *workload) []string {
	var out []string
	seen := map[string]bool{}
	for _, it := range w.items {
		if !seen[it.grammar] {
			seen[it.grammar] = true
			out = append(out, it.grammar)
		}
	}
	return out
}

// buildLayers times compose, optimize and compile of every workload
// grammar and returns the sum over grammars of each stage's median.
func buildLayers(tr *tracer, w *workload) (compose, apply, compile time.Duration, err error) {
	for gi, g := range bundledGrammars(w) {
		var c, a, k []float64
		for rep := 0; rep < buildReps; rep++ {
			req := -(gi*buildReps + rep + 1) // set-up spans get negative request ids
			var composed, optimized *peg.Grammar
			c = append(c, float64(tr.record(req, 0, "core.compose", func() {
				composed, err = core.Compose(g, grammars.Resolver())
			}).dur()))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("composing %s: %w", g, err)
			}
			a = append(a, float64(tr.record(req, 0, "transform.apply", func() {
				optimized, _, err = transform.Apply(composed, transform.Defaults())
			}).dur()))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("optimizing %s: %w", g, err)
			}
			k = append(k, float64(tr.record(req, 0, "vm.compile", func() {
				_, err = vm.Compile(optimized, vm.Optimized())
			}).dur()))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("compiling %s: %w", g, err)
			}
		}
		_, mc, _ := quartiles(c)
		_, ma, _ := quartiles(a)
		_, mk, _ := quartiles(k)
		compose += time.Duration(mc)
		apply += time.Duration(ma)
		compile += time.Duration(mk)
	}
	return compose, apply, compile, nil
}

// traceCycles is how many cycles of the closed phase the traced run
// replays. Every replayed request parses three times in one process
// whose pooled sessions retain every value they produced, so the replay
// stays short to keep that retention within a few hundred megabytes.
const traceCycles = 8

// tracedRun replays w's warm-up (checked by the oracle) and the start of
// its closed phase, and returns the per-layer metrics of that replay.
func tracedRun(w *workload, dir, spanFile string) (map[string]float64, *runner, error) {
	closed := w.closed[:min(len(w.closed), traceCycles*w.cycleLen)]
	// Room for every span up front, so that recording them does not
	// grow the live heap the retention metric reads.
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 3*buildReps*len(bundledGrammars(w))+len(w.warmup)+(1+len(stageNames))*len(closed))}
	compose, apply, compile, err := buildLayers(tr, w)
	if err != nil {
		return nil, nil, err
	}

	ctx := context.Background()
	reg, err := registry.New(registry.Config{Dir: filepath.Join(dir, "registry-trace"), DefaultLimits: serverLimits})
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{
		Grammars: modpeg.BundledGrammars(),
		Engine:   "optimized",
		Limits:   serverLimits,
		Logger:   slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Registry: reg,
	})
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	static := map[string]*modpeg.Parser{}
	for _, g := range bundledGrammars(w) {
		if static[g], err = modpeg.New(g); err != nil {
			return nil, nil, err
		}
	}

	r := newRunner(w, handlerDoer{h})
	upload := func(o op) (registry.VersionInfo, error) {
		src, err := grammars.Source(o.grammar)
		if err != nil {
			return registry.VersionInfo{}, err
		}
		return reg.Upload(ctx, o.tenant, o.grammar, registry.Upload{Source: src})
	}
	for _, o := range w.uploadSlots {
		if _, err := upload(o); err != nil {
			return nil, nil, fmt.Errorf("set-up upload %s/%s: %w", o.tenant, o.grammar, err)
		}
	}
	r.upload = func(o op, _ *bytes.Buffer) (time.Duration, error) {
		var info registry.VersionInfo
		var err error
		s := tr.record(-len(tr.spans)-1, 0, spanUpload, func() { info, err = upload(o) })
		if err == nil && info.Version > 2 {
			_, err = reg.Delete(o.tenant, o.grammar, info.Version-2)
		}
		return s.dur(), err
	}
	r.warmup(w.warmup)

	var (
		buf                      bytes.Buffer
		sink                     bytes.Buffer
		untraced, traced         time.Duration
		parseOps, inputBytes     int
		parseTime                time.Duration
		calls, hits, misses      int
		respKB, parseAllocs, enc = make([]float64, 0, len(closed)), make([]float64, 0, len(closed)), make([]float64, 0, len(closed))
		ms0, ms1                 runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for n, o := range closed {
		if o.kind == opUpload {
			r.exec(o, &buf)
			continue
		}
		parseOps++
		it := &w.items[o.item]
		r.attempted.Add(1)

		// One untimed-by-span call and one traced call of the whole
		// handler, alternating which goes first.
		untracedCall := func() {
			rec, hreq := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/parse", bytes.NewReader(it.body))
			t := time.Now()
			h.ServeHTTP(rec, hreq)
			untraced += time.Since(t)
		}
		if n%2 == 0 {
			untracedCall()
		}
		rec, hreq := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/parse", bytes.NewReader(it.body))

		var (
			req        serve.ParseRequest
			p          *modpeg.Parser
			version    int
			val        modpeg.Value
			st         modpeg.ParseStats
			parseErr   error
			valueJSON  string
			stageErr   error
			m0, m1, m2 runtime.MemStats
		)
		tr.traceRequest(n+1, stages{
			handler: func() { h.ServeHTTP(rec, hreq) },
			stage: [len(stageNames)]func(){
				func() {
					dec := json.NewDecoder(bytes.NewReader(it.body))
					dec.DisallowUnknownFields()
					stageErr = dec.Decode(&req)
				},
				func() {
					if req.Tenant == "" {
						p = static[req.Grammar]
						return
					}
					lease, err := reg.Acquire(req.Tenant, req.Grammar, req.Version)
					if err != nil {
						stageErr = err
						return
					}
					p, version = lease.Parser, lease.Version
					lease.Release()
				},
				func() {
					if p != nil {
						val, st, parseErr = p.ParseContextTraced(ctx, "request", req.Input, serverLimits, "")
					}
				},
				func() {
					if !req.OmitValue && parseErr == nil {
						valueJSON, stageErr = modpeg.ValueToJSONCompact(val)
					}
				},
				func() {
					sink.Reset()
					stageErr = errors.Join(stageErr, json.NewEncoder(&sink).Encode(responseOf(&req, version, st, parseErr, valueJSON)))
				},
			},
			between: func(i int) {
				switch stageNames[i] {
				case spanAcquire:
					runtime.ReadMemStats(&m0)
				case spanParse:
					runtime.ReadMemStats(&m1)
					parseAllocs = append(parseAllocs, float64(m1.Mallocs-m0.Mallocs))
				case spanEncode:
					runtime.ReadMemStats(&m2)
					enc = append(enc, float64(m2.Mallocs-m1.Mallocs))
				}
			},
		})
		if n%2 == 1 {
			untracedCall()
		}
		spans := tr.spans[len(tr.spans)-1-len(stageNames):]
		traced += spans[0].dur()
		parseTime += spans[3].dur()
		if stageErr != nil || p == nil {
			r.fail(o, fmt.Errorf("stage call: %v", stageErr))
			continue
		}
		if e := r.expect[o.item]; rec.Code != e.status || normalizedLength(rec.Body.Bytes()) != e.length {
			r.fail(o, fmt.Errorf("handler answered %d with %d bytes, verified answer was %d with %d bytes",
				rec.Code, normalizedLength(rec.Body.Bytes()), e.status, e.length))
		}
		respKB = append(respKB, float64(rec.Body.Len())/1024)
		inputBytes += len(req.Input)
		calls += st.Calls
		hits += st.MemoHits
		misses += st.MemoMisses
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	times := layerTimes(tr.spans)
	_, medKB, _ := quartiles(respKB)
	_, medParseAllocs, _ := quartiles(parseAllocs)
	_, medEncAllocs, _ := quartiles(enc)
	// Every parse op parsed three times: the untraced handler call, the
	// traced one, and the parse stage.
	parses := 3 * parseOps
	metrics := map[string]float64{
		"serve.handler_us_p50":      us(p50(times[spanHandler])),
		"serve.decode_us_p50":       us(p50(times[spanDecode])),
		"serve.write_us_p50":        us(p50(times[spanWrite])),
		"serve.self_us_p50":         us(p50(times[spanSelf])),
		"serve.response_kb_p50":     medKB,
		"registry.acquire_ns_p50":   float64(p50(times[spanAcquire])),
		"registry.upload_ms_p50":    ms(p50(times[spanUpload])),
		"core.compose_ms":           ms(compose),
		"transform.apply_ms":        ms(apply),
		"vm.compile_ms":             ms(compile),
		"vm.parse_us_p50":           us(p50(times[spanParse])),
		"vm.parse_ns_per_byte":      float64(parseTime) / float64(inputBytes),
		"vm.memo_hit_ratio":         float64(hits) / float64(hits+misses),
		"vm.calls_per_kb":           float64(calls) / (float64(inputBytes) / 1024),
		"vm.parse_allocs":           medParseAllocs,
		"vm.retained_kb_per_parse":  (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / 1024 / float64(parses),
		"ast.encode_us_p50":         us(p50(times[spanEncode])),
		"ast.encode_allocs":         medEncAllocs,
		"trace.overhead_us_per_req": us(traced-untraced) / float64(parseOps),
	}
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return nil, nil, err
	}
	return metrics, r, nil
}

// responseOf builds the body the handler writes for one parse outcome.
func responseOf(req *serve.ParseRequest, version int, st modpeg.ParseStats, parseErr error, valueJSON string) any {
	if parseErr != nil {
		resp := serve.ErrorResponse{Error: "engine", Message: parseErr.Error()}
		var pe *modpeg.ParseError
		if errors.As(parseErr, &pe) {
			loc := pe.Src.Location(pe.Pos)
			resp.Error, resp.Expected = "syntax", pe.Expected
			resp.Location = &serve.LocationJSON{File: loc.File, Line: loc.Line, Column: loc.Column, Offset: int(loc.Offset)}
		}
		return resp
	}
	resp := serve.ParseResponse{
		Grammar: req.Grammar,
		Tenant:  req.Tenant,
		Version: version,
		Stats: serve.StatsJSON{
			Calls: st.Calls, DispatchSkips: st.DispatchSkips, MemoHits: st.MemoHits, MemoMisses: st.MemoMisses,
			MemoStores: st.MemoStores, MemoBytes: st.MemoBytes, MemoSheds: st.MemoSheds, MaxPos: st.MaxPos,
		},
	}
	if valueJSON != "" {
		resp.Value = json.RawMessage(valueJSON)
	}
	return resp
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
