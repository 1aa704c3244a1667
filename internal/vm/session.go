package vm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// Session is an explicitly managed, reusable parse context: the memo
// table's slabs, the chunk directory, and the parser's scratch buffers
// survive from one Parse to the next, so a session parsing in a loop
// performs zero parser-machinery allocations at steady state (semantic
// values still allocate, amortized through slab allocation).
//
// A Session is bound to one Program and must not be used from more than
// one goroutine at a time. For an implicit, pool-managed equivalent just
// call Program.Parse; for fanning a batch of inputs across cores see
// Program.ParseAll.
type Session struct {
	ps *Parser
}

// NewSession creates an unpooled reusable parse context for p.
func (p *Program) NewSession() *Session {
	return &Session{ps: &Parser{prog: p}}
}

// Parse is Program.Parse on the reusable session context. The
// previous parse's memo state is recycled, never consulted: results and
// statistics are identical to a cold parse. A hook in opts serves this
// parse only; pass the same one to consecutive parses to aggregate.
func (s *Session) Parse(ctx context.Context, src *text.Source, opts ParseOptions) (ast.Value, Stats, error) {
	val, err := s.ps.parse(ctx, src, opts)
	s.ps.hook = nil // an idle session must not pin the caller's hook
	return val, s.ps.stats, err
}

// Program returns the program the session executes.
func (s *Session) Program() *Program { return s.ps.prog }

// Result is the outcome of parsing one input of a batch.
type Result struct {
	Value ast.Value
	Stats Stats
	Err   error
}

// TotalStats aggregates the per-input statistics of a batch (see
// Stats.Add).
func TotalStats(results []Result) Stats {
	var total Stats
	for i := range results {
		total.Add(results[i].Stats)
	}
	return total
}

// ParseAll parses every source concurrently and returns one Result per
// input. The contract is order-preserving: results[i] is the outcome of
// srcs[i], regardless of which worker parsed it or when it finished.
//
// workers bounds the number of parsing goroutines; values <= 0 select
// GOMAXPROCS. Each worker draws its own pooled parse session, so the
// inputs share nothing but the read-only Program, and a steady stream of
// batches reuses the same sessions.
//
// Every input is parsed under ctx and lim. Cancellation drains the
// worker pool promptly: inputs whose parse is in flight abort on the
// next governance poll, and inputs not yet started are marked with a
// *LimitError without being parsed at all. Every result slot is filled
// either way — results[i].Err reports what happened to srcs[i].
func (p *Program) ParseAll(ctx context.Context, srcs []*text.Source, workers int, lim Limits) []Result {
	results := make([]Result, len(srcs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}
	parseOne := func(ps *Parser, i int) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				// Drain: the batch was abandoned before this input started.
				results[i] = Result{Err: ctxLimitError(err, lim.MaxParseDuration, 0)}
				return
			}
		}
		val, err := ps.parse(ctx, srcs[i], ParseOptions{Limits: lim})
		results[i] = Result{Value: val, Stats: ps.stats, Err: err}
	}
	if workers <= 1 {
		ps := p.acquire()
		for i := range srcs {
			parseOne(ps, i)
		}
		p.release(ps)
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ps := p.acquire()
			defer p.release(ps)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				parseOne(ps, i)
			}
		}()
	}
	wg.Wait()
	return results
}
