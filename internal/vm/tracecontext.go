package vm

// This file threads a distributed-trace identity through a parse: the
// serve layer accepts (or mints) a W3C traceparent per request and arms
// the parse with its trace ID, which then (a) reaches the installed
// hook when the hook opts in via TraceContextHook — the Chrome-trace
// exporter stamps its stream with it — and (b) is recorded as an
// exemplar on the latency-histogram bucket the parse lands in, so a
// scrape of the tail buckets carries real trace IDs to chase instead
// of anonymous counts. An empty trace ID (the default, and every parse
// without ParseOptions.TraceID) changes nothing: begin resets the
// field with a scalar write and finishStats checks it with one string
// comparison, so the untraced path stays allocation-free.

// TraceContextHook is an optional extension of Hook (like ShedHook):
// when the installed hook also implements it, a traced parse
// (ParseOptions.TraceID set) reports its W3C trace ID once,
// before the first parse event, so event streams can be correlated
// with distributed traces. Untraced parses never fire it.
type TraceContextHook interface {
	Hook
	OnTraceContext(traceID string)
}

// setTraceContext arms the parse with traceID. Called after begin (and
// after any hook install), so the hook notification sees the hook that
// will receive this parse's events.
func (ps *Parser) setTraceContext(traceID string) {
	ps.traceID = traceID
	if traceID == "" {
		return
	}
	if h, ok := ps.hook.(TraceContextHook); ok {
		h.OnTraceContext(traceID)
	}
}
