package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"modpeg/internal/vm"
)

// Trace is a parse-event hook that streams Chrome trace-event JSON — a
// timeline loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Each production invocation becomes a B/E duration span; memo hits and
// memo sheds become instant events. Dispatch fast-fails (Hook.OnFail)
// are deliberately not emitted: they outnumber real events by orders of
// magnitude and carry no duration.
//
// Install it like any other hook, then Close to terminate the JSON
// array and flush:
//
//	tr := telemetry.NewTrace(prog, f)
//	prog.Parse(ctx, src, vm.ParseOptions{Hook: tr})
//	err := tr.Close()
//
// A Trace serves one parsing goroutine; consecutive parses may share
// one Trace and land on the same timeline. Timestamps are microseconds
// since the Trace was created. Write errors are latched and returned by
// Close.
type Trace struct {
	prog  *vm.Program
	w     *bufio.Writer
	err   error
	n     int // events emitted
	start time.Time
	clock func() time.Duration
}

// NewTrace creates a trace-event exporter resolving production names
// against prog and streaming JSON to w.
func NewTrace(prog *vm.Program, w io.Writer) *Trace {
	t := &Trace{prog: prog, w: bufio.NewWriter(w), start: time.Now()}
	t.clock = func() time.Duration { return time.Since(t.start) }
	return t
}

// SetClock replaces the event timestamp source (elapsed time since the
// trace began) — for deterministic output in tests. Call it before the
// first event.
func (t *Trace) SetClock(clock func() time.Duration) { t.clock = clock }

// Events returns the number of trace events emitted so far (metadata
// included).
func (t *Trace) Events() int { return t.n }

// Close terminates the JSON array and flushes. The Trace must not
// receive further events. It returns the first error the underlying
// writer reported.
func (t *Trace) Close() error {
	if t.err == nil {
		if t.n == 0 {
			_, t.err = t.w.WriteString("[]\n")
		} else {
			_, t.err = t.w.WriteString("\n]\n")
		}
	}
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// OnEnter emits the opening edge of a production span.
func (t *Trace) OnEnter(prod, pos int) {
	t.event(`{"name":` + t.prodName(prod) +
		`,"cat":"production","ph":"B","ts":` + t.ts() +
		`,"pid":1,"tid":1,"args":{"pos":` + strconv.Itoa(pos) + `}}`)
}

// OnExit emits the closing edge of a production span.
func (t *Trace) OnExit(prod, pos, end int, ok bool) {
	t.event(`{"name":` + t.prodName(prod) +
		`,"cat":"production","ph":"E","ts":` + t.ts() +
		`,"pid":1,"tid":1,"args":{"end":` + strconv.Itoa(end) +
		`,"ok":` + strconv.FormatBool(ok) + `}}`)
}

// OnMemoHit emits an instant event where the memo table answered in
// place of an enter/exit pair.
func (t *Trace) OnMemoHit(prod, pos, end int, ok bool) {
	t.event(`{"name":` + strconv.Quote("memo "+t.prog.ProductionName(prod)) +
		`,"cat":"memo","ph":"i","ts":` + t.ts() +
		`,"pid":1,"tid":1,"s":"t","args":{"pos":` + strconv.Itoa(pos) +
		`,"end":` + strconv.Itoa(end) +
		`,"ok":` + strconv.FormatBool(ok) + `}}`)
}

// OnFail is a no-op: dispatch fast-fails are too numerous to chart.
func (t *Trace) OnFail(prod, pos int) {}

// OnTraceContext stamps the stream with the parse's W3C trace ID
// (vm.TraceContextHook): a metadata record correlating this timeline
// with the distributed trace the request belongs to.
func (t *Trace) OnTraceContext(traceID string) {
	t.event(`{"name":"trace_id","ph":"M","pid":1,"tid":1,"args":{"trace_id":` +
		strconv.Quote(traceID) + `}}`)
}

// OnMemoShed emits an instant event marking the parse shedding
// memoization at its memo budget (vm.ShedHook).
func (t *Trace) OnMemoShed(pos, arenaBytes int) {
	t.event(`{"name":"memo-shed","cat":"memo","ph":"i","ts":` + t.ts() +
		`,"pid":1,"tid":1,"s":"p","args":{"pos":` + strconv.Itoa(pos) +
		`,"arena_bytes":` + strconv.Itoa(arenaBytes) + `}}`)
}

// event appends one pre-rendered JSON object to the stream, emitting
// the array opener and the process-name metadata record first.
func (t *Trace) event(obj string) {
	if t.err != nil {
		return
	}
	if t.n == 0 {
		t.writeString("[\n" +
			`{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"modpeg"}}`)
		t.n++
	}
	t.writeString(",\n" + obj)
	t.n++
}

func (t *Trace) writeString(s string) {
	if t.err == nil {
		_, t.err = t.w.WriteString(s)
	}
}

// ts renders the current elapsed time as trace-format microseconds,
// keeping nanosecond precision as fractional digits.
func (t *Trace) ts() string {
	return fmt.Sprintf("%.3f", float64(t.clock())/float64(time.Microsecond))
}

// prodName renders production prod's fully qualified name as a JSON
// string.
func (t *Trace) prodName(prod int) string {
	return strconv.Quote(t.prog.ProductionName(prod))
}
