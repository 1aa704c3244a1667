package vm

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"modpeg/internal/ast"
)

// This file is the engine's resource-governance layer: hard budgets on
// what one parse may consume (input bytes, memo storage, call depth,
// wall-clock time), context cancellation, graceful degradation when the
// memo budget is hit, and containment of interpreter panics. The
// serving-grade posture is that no input — hostile, enormous, or merely
// pathological — may pin a goroutine forever or grow the memo arenas
// without bound.
//
// Enforcement is edge-based, not per-opcode: the clock and the context
// are polled on the chunk-allocation edge (memoStore carving a new row
// or chunk — the only place the memo table grows) and on the backtrack
// edge (the failure-recording path every failed literal, class,
// predicate, or production call crosses — the step that dominates
// adversarial exponential inputs). Both edges are off the
// every-matching-terminal hot path, so an ungoverned parse pays one
// predictable bool check per failure and the zero-allocation steady
// state of the session layer is untouched
// (TestDisabledInstrumentationZeroAllocs covers the
// governed-but-unlimited path too).
//
// Degradation model: when MaxMemoBytes is reached the engine sheds
// memoization — every production is treated as transient from that
// point on, exactly the degradation mode Ford's packrat work and the
// Rats! transient optimization motivate: correctness never depended on
// the memo table, only speed did. Entries already stored remain
// readable, the table just stops growing. Callers who prefer
// determinism over degradation set Strict, which turns the budget hit
// into a hard *LimitError.

// Limits bounds one parse. The zero value means unlimited; each budget
// is enforced only when positive. Limits are independent of (and
// combine with) the deadline and cancellation of the context a parse
// runs under.
type Limits struct {
	// MaxInputBytes rejects inputs longer than this before parsing
	// starts.
	MaxInputBytes int
	// MaxMemoBytes bounds the memo table's modeled heap footprint (the
	// Stats.MemoBytes model). When the budget is reached the engine
	// sheds memoization (see Strict): the parse continues without
	// storing new memo entries, trading packrat's linearity guarantee
	// for bounded space.
	MaxMemoBytes int
	// MaxCallDepth bounds production-call nesting — the defense against
	// deeply nested inputs driving the interpreter into the guard page.
	MaxCallDepth int
	// MaxParseDuration bounds the parse's wall-clock time, checked on
	// the governance edges.
	MaxParseDuration time.Duration
	// Strict hard-fails with a *LimitError when the memo budget is hit
	// instead of shedding memoization.
	Strict bool
}

// Tighten merges another Limits into this one, returning the stricter
// of the two budget by budget: for each budget the smaller positive
// value wins (zero means unlimited and never loosens a set budget), and
// Strict holds if either side set it. This is the layering primitive of
// a multi-tenant service — server defaults tightened by tenant budgets
// tightened by per-request overrides — with the invariant that no layer
// can ever exceed the one above it.
func (l Limits) Tighten(o Limits) Limits {
	tight := func(a, b int) int {
		if b <= 0 {
			return a
		}
		if a <= 0 || b < a {
			return b
		}
		return a
	}
	l.MaxInputBytes = tight(l.MaxInputBytes, o.MaxInputBytes)
	l.MaxMemoBytes = tight(l.MaxMemoBytes, o.MaxMemoBytes)
	l.MaxCallDepth = tight(l.MaxCallDepth, o.MaxCallDepth)
	if o.MaxParseDuration > 0 && (l.MaxParseDuration <= 0 || o.MaxParseDuration < l.MaxParseDuration) {
		l.MaxParseDuration = o.MaxParseDuration
	}
	l.Strict = l.Strict || o.Strict
	return l
}

// LimitKind names the budget a governed parse exhausted.
type LimitKind uint8

const (
	// LimitInput: the input exceeded Limits.MaxInputBytes.
	LimitInput LimitKind = iota
	// LimitMemo: the memo footprint exceeded Limits.MaxMemoBytes under
	// Strict (without Strict the engine sheds memoization instead).
	LimitMemo
	// LimitDepth: production-call nesting exceeded Limits.MaxCallDepth.
	LimitDepth
	// LimitTime: the deadline (context or MaxParseDuration) passed.
	LimitTime
	// LimitCanceled: the context was canceled.
	LimitCanceled
)

func (k LimitKind) String() string {
	switch k {
	case LimitInput:
		return "input-bytes"
	case LimitMemo:
		return "memo-bytes"
	case LimitDepth:
		return "call-depth"
	case LimitTime:
		return "deadline"
	case LimitCanceled:
		return "canceled"
	}
	return fmt.Sprintf("LimitKind(%d)", uint8(k))
}

// LimitError reports a parse stopped by a resource budget: which budget
// blew, the configured limit, the observed value, and how far into the
// input the parse had reached when it stopped.
type LimitError struct {
	// Kind is the exhausted budget.
	Kind LimitKind
	// Limit is the configured budget (bytes, depth, or nanoseconds);
	// zero for cancellation.
	Limit int64
	// Actual is the observed value that blew the budget, in the same
	// unit as Limit.
	Actual int64
	// Pos is the input position the parse had reached.
	Pos int
	// Cause carries the underlying context error for LimitTime and
	// LimitCanceled (context.DeadlineExceeded, context.Canceled).
	Cause error
}

func (e *LimitError) Error() string {
	switch e.Kind {
	case LimitCanceled:
		return fmt.Sprintf("parse canceled at position %d: %v", e.Pos, e.Cause)
	case LimitTime:
		return fmt.Sprintf("parse deadline exceeded at position %d (budget %s)",
			e.Pos, time.Duration(e.Limit))
	case LimitInput:
		return fmt.Sprintf("input of %d bytes exceeds limit of %d", e.Actual, e.Limit)
	case LimitMemo:
		return fmt.Sprintf("memo footprint of %d bytes exceeds strict limit of %d at position %d",
			e.Actual, e.Limit, e.Pos)
	case LimitDepth:
		return fmt.Sprintf("call depth %d exceeds limit of %d at position %d",
			e.Actual, e.Limit, e.Pos)
	}
	return fmt.Sprintf("resource limit %v exceeded at position %d", e.Kind, e.Pos)
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work on governed parses.
func (e *LimitError) Unwrap() error { return e.Cause }

// EngineError reports an interpreter panic contained by the governance
// layer: instead of unwinding into the caller, the panic is converted
// into an error carrying the panic value, the farthest input position
// the parse had reached, and the stack of the containment point.
type EngineError struct {
	// Panic is the recovered panic value.
	Panic any
	// Pos is the farthest input position reached before the panic.
	Pos int
	// Stack is the containment stack trace (diagnostic only).
	Stack string
}

func (e *EngineError) Error() string {
	return fmt.Sprintf("internal engine error at position %d: %v", e.Pos, e.Panic)
}

// noLimit is the sentinel budget of an ungoverned parse: comparisons
// against it are always false for realistic workloads, so the unlimited
// path needs no extra branch.
const noLimit = int(^uint(0) >> 1)

// pollEvery is the number of governance-edge crossings between clock
// and context polls. Edges fire at sub-microsecond intervals on
// adversarial inputs, so a poll lands within tens of microseconds of a
// deadline while keeping time.Now off the common path.
const pollEvery = 256

// arm installs ctx and lim on a parser that begin has just rewound. It
// returns a *LimitError immediately when the input already exceeds
// MaxInputBytes or the context is already dead. The nil-context,
// zero-Limits case leaves the parser exactly as ungoverned as plain
// Parse — no time is read and nothing allocates.
func (ps *Parser) arm(ctx context.Context, lim Limits) *LimitError {
	if lim.MaxInputBytes > 0 && len(ps.in) > lim.MaxInputBytes {
		return &LimitError{Kind: LimitInput, Limit: int64(lim.MaxInputBytes), Actual: int64(len(ps.in))}
	}
	if lim.MaxCallDepth > 0 {
		ps.maxDepth = lim.MaxCallDepth
	}
	if lim.MaxMemoBytes > 0 {
		ps.memoBudget = lim.MaxMemoBytes
	}
	ps.strict = lim.Strict
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return ctxLimitError(err, lim.MaxParseDuration, 0)
		}
		if ctx.Done() != nil {
			ps.ctx = ctx
			ps.timed = true
		}
		if d, ok := ctx.Deadline(); ok {
			ps.deadline = d
			ps.timed = true
		}
	}
	if lim.MaxParseDuration > 0 {
		ps.timeBudget = lim.MaxParseDuration
		if d := time.Now().Add(lim.MaxParseDuration); ps.deadline.IsZero() || d.Before(ps.deadline) {
			ps.deadline = d
		}
		ps.timed = true
	}
	ps.poll = pollEvery
	return nil
}

// disarm rewinds the governance state to the ungoverned defaults; begin
// calls it so a pooled parser never inherits a previous caller's
// budgets. Scalar writes only — the ungoverned path stays
// allocation-free.
func (ps *Parser) disarm() {
	ps.ctx = nil
	ps.deadline = time.Time{}
	ps.timeBudget = 0
	ps.timed = false
	ps.maxDepth = noLimit
	ps.memoBudget = noLimit
	ps.strict = false
	ps.depth = 0
	ps.memoUsed = 0
	ps.shed = false
	ps.poll = 0
}

// ctxLimitError wraps a context error as the matching *LimitError.
// budget is the configured MaxParseDuration (zero when the deadline
// came from the context alone).
func ctxLimitError(err error, budget time.Duration, pos int) *LimitError {
	kind := LimitCanceled
	var limit int64
	if err == context.DeadlineExceeded {
		kind = LimitTime
		limit = int64(budget)
	}
	return &LimitError{Kind: kind, Limit: limit, Pos: pos, Cause: err}
}

// pollEdge is the governance poll, called from the chunk-allocation and
// backtrack edges of a timed parse. Most crossings only decrement a
// countdown; every pollEvery-th reads the context and the clock and
// aborts the parse (via panic, contained in run) when either says stop.
func (ps *Parser) pollEdge(pos int) {
	ps.poll--
	if ps.poll > 0 {
		return
	}
	ps.poll = pollEvery
	if ps.ctx != nil {
		if err := ps.ctx.Err(); err != nil {
			panic(ctxLimitError(err, ps.timeBudget, pos))
		}
	}
	if !ps.deadline.IsZero() && time.Now().After(ps.deadline) {
		panic(&LimitError{Kind: LimitTime, Limit: int64(ps.timeBudget),
			Pos: pos, Cause: context.DeadlineExceeded})
	}
}

// chargeMemo admits bytes more of memo storage, riding the governance
// poll on this allocation edge. It returns false — after shedding
// memoization — when the budget is exhausted; under Strict it aborts
// the parse instead.
func (ps *Parser) chargeMemo(bytes, pos int) bool {
	if ps.timed {
		ps.pollEdge(pos)
	}
	used := ps.memoUsed + bytes
	if used > ps.memoBudget {
		if ps.strict {
			panic(&LimitError{Kind: LimitMemo, Limit: int64(ps.memoBudget),
				Actual: int64(used), Pos: pos})
		}
		ps.shedMemo(pos)
		return false
	}
	ps.memoUsed = used
	return true
}

// shedMemo switches the parse into degraded mode: every production is
// transient from here on. Existing memo entries stay readable (they are
// already paid for); the table just stops growing. The event is
// recorded in the parse's Stats, the process metrics registry, and —
// when the installed hook implements ShedHook — the hook seam.
func (ps *Parser) shedMemo(pos int) {
	if ps.shed {
		return
	}
	ps.shed = true
	ps.stats.MemoSheds++
	metrics.memoSheds.Add(1)
	if h, ok := ps.hook.(ShedHook); ok {
		h.OnMemoShed(pos, ps.memoArenaBytes())
	}
}

// contain is the deferred recovery installed by run and runPrefix: a
// *LimitError thrown on a governance edge becomes the parse's error,
// and any other interpreter panic is converted into an *EngineError
// with the farthest position attached, so a grammar or engine bug (or a
// panicking hook) degrades into an error return instead of unwinding
// through a server's request handler.
func (ps *Parser) contain(val *ast.Value, err *error) {
	r := recover()
	if r == nil {
		return
	}
	*val = nil
	ps.finishStats()
	far := ps.stats.MaxPos
	if ps.failPos > far {
		far = ps.failPos
	}
	if le, ok := r.(*LimitError); ok {
		metrics.limitStops.Add(1)
		if g := ps.grammarTally(); g != nil {
			g.limitStops.Add(1)
		}
		*err = le
		return
	}
	metrics.panicsContained.Add(1)
	*err = &EngineError{Panic: r, Pos: far, Stack: string(debug.Stack())}
}

// runContext arms the parser and runs it, folding an arming failure
// into the error return. The caller has already called begin.
func (ps *Parser) runContext(ctx context.Context, lim Limits) (ast.Value, error) {
	if le := ps.arm(ctx, lim); le != nil {
		ps.finishStats()
		metrics.limitStops.Add(1)
		if g := ps.grammarTally(); g != nil {
			g.limitStops.Add(1)
		}
		return nil, le
	}
	return ps.run()
}
