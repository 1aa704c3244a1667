package vm

import (
	"fmt"
	"io"
	"strings"
)

// Hook receives parse events from the interpreter. Hooks are the
// engine's pluggable observability seam: the production-call trace and
// the per-production profiler are both hook implementations, and callers
// can supply their own (coverage maps, breakpoint debuggers, sampling
// profilers) without the engine knowing about them.
//
// The interpreter invokes a hook synchronously from the parse, so an
// implementation must be fast and must not call back into the parser.
// When no hook is installed the engine takes a nil-check fast path that
// adds zero allocations and no measurable time to a parse (the property
// TestDisabledInstrumentationZeroAllocs locks in).
//
// prod is the production index; resolve it to a name with
// Program.ProductionName. Events for one parse always arrive from the
// goroutine running that parse, and OnEnter/OnExit pairs nest strictly,
// so a hook can maintain a call stack by push/pop alone.
type Hook interface {
	// OnEnter fires when a production's body starts evaluating at pos —
	// after first-byte dispatch accepted the position and the memo table
	// (if the production is memoized) reported a miss. One OnEnter is
	// always matched by one OnExit.
	OnEnter(prod, pos int)
	// OnExit fires when the production's body finishes: end is the
	// position after the match when ok, 0 when the production failed.
	OnExit(prod, pos, end int, ok bool)
	// OnMemoHit fires when the memo table answers for prod at pos
	// instead of evaluating it: a stored success ending at end (ok) or a
	// stored failure (!ok, end == pos). The body is not evaluated, so no
	// OnEnter/OnExit pair follows.
	OnMemoHit(prod, pos, end int, ok bool)
	// OnFail fires when first-byte dispatch rejects prod at pos without
	// entering it — the dispatch-skip fast path. (Failures of an entered
	// production are reported as OnExit with ok=false.)
	OnFail(prod, pos int)
}

// ShedHook is an optional extension of Hook for governed parses
// (ParseOptions.Limits): when the installed hook also implements
// ShedHook, the engine reports the moment a memo-budget hit sheds
// memoization (see Limits.MaxMemoBytes). pos is the input position at the shed;
// arenaBytes is the carved memo-arena footprint at that point. The
// event fires at most once per parse, synchronously like every hook
// event.
//
// On a parse stopped by a limit or a contained panic, OnEnter events
// may be left without their matching OnExit — stack-tracking hooks
// should reset their state per parse rather than assume balance across
// an aborted run.
type ShedHook interface {
	Hook
	OnMemoShed(pos, arenaBytes int)
}

// ProductionName returns the fully qualified name of production prod
// (as used in hook events and profiles), or "" when out of range.
func (p *Program) ProductionName(prod int) string {
	if prod < 0 || prod >= len(p.prods) {
		return ""
	}
	return p.prods[prod].name
}

// traceHook renders parse events as a human-readable call trace: one
// line per production entry, exit, and memo hit, indented by call
// depth. It is the reference Hook implementation — the engine's
// original hard-wired trace, rebuilt on the event seam.
type traceHook struct {
	prog  *Program
	w     io.Writer
	depth int
}

// NewTraceText returns a hook streaming the human-readable call trace
// of the parses it is installed on to w. Intended for grammar
// debugging, not production use.
func (p *Program) NewTraceText(w io.Writer) Hook {
	return &traceHook{prog: p, w: w}
}

func (t *traceHook) line(format string, args ...any) {
	fmt.Fprintf(t.w, "%s", strings.Repeat("  ", t.depth))
	fmt.Fprintf(t.w, format, args...)
	fmt.Fprintln(t.w)
}

func (t *traceHook) OnEnter(prod, pos int) {
	t.line("%s @%d {", t.prog.prods[prod].display, pos)
	t.depth++
}

func (t *traceHook) OnExit(prod, pos, end int, ok bool) {
	t.depth--
	if ok {
		t.line("} %s @%d -> %d", t.prog.prods[prod].display, pos, end)
	} else {
		t.line("} %s @%d -> fail", t.prog.prods[prod].display, pos)
	}
}

func (t *traceHook) OnMemoHit(prod, pos, end int, ok bool) {
	outcome := "memo-fail"
	if ok {
		outcome = fmt.Sprintf("memo-hit -> %d", end)
	}
	t.line("%s @%d: %s", t.prog.prods[prod].display, pos, outcome)
}

// OnFail is a dispatch skip; the trace has never shown those (they fire
// on every fast-failed alternative and would drown the call structure).
func (t *traceHook) OnFail(prod, pos int) {}
