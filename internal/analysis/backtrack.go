package analysis

import (
	"sort"

	"modpeg/internal/peg"
)

// BacktrackPrefixes returns the productions an ordered parse can invoke
// a second time at the same input position — the memoization set that
// actually pays for itself. A packrat column earns its keep only when
// some choice point re-enters the production at a position it has
// already been tried at, and in a PEG those re-entries are statically
// visible: they are the common leftmost prefixes of expressions that
// compete for the same starting position. Three constructs create such
// competition:
//
//   - ordered choice: when `A = X α / Y β` fails out of the first
//     alternative, the second starts over at the choice's position, so
//     any production on both alternatives' leftmost frontiers is parsed
//     twice there (Conditional's `c:Or "?" … / Or` re-enters Or);
//   - a nullable prefix in a sequence: in `A? B`, when A succeeds empty
//     or fails, B probes the same position A just examined;
//   - left-recursion suffixes: each growth step tries every suffix at
//     the current end, so the suffixes' leftmost frontiers compete.
//
// For each competition group the pairwise intersections of the
// competitors' transitive leftmost-call closures are taken, and only
// the outermost members of each intersection are kept: once the
// outermost shared production memo-hits, the retry never descends to
// the inner ones, so memoizing those would be dead weight (Conditional
// retry hits LogicalOr and never re-probes the tower below it).
//
// The compiled engine (internal/vm) memoizes this set plus its
// CycleBreakers. The policy needs no profile, which is what lets
// registry uploads compile cold.
func (a *Analysis) BacktrackPrefixes() map[string]bool {
	// Transitive closure of the leftmost-call graph, per production.
	direct := make(map[string][]string, len(a.Grammar.Order))
	for _, name := range a.Grammar.Order {
		p := a.Grammar.Prods[name]
		if p.Choice == nil {
			continue
		}
		set := map[string]bool{}
		a.leftCalls(p.Choice, set)
		direct[name] = sortedKeys(set)
	}
	closure := make(map[string]map[string]bool, len(direct))
	for name := range direct {
		seen := map[string]bool{}
		stack := append([]string(nil), direct[name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, direct[n]...)
		}
		closure[name] = seen
	}

	// expand is a competitor's leftmost frontier: the productions its
	// expression can call before consuming input, plus everything those
	// can left-call in turn.
	expand := func(e peg.Expr) map[string]bool {
		out := map[string]bool{}
		a.leftCalls(e, out)
		for _, name := range sortedKeys(out) {
			for q := range closure[name] {
				out[q] = true
			}
		}
		return out
	}

	out := map[string]bool{}
	mark := func(group []map[string]bool) {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				for p := range group[i] {
					if !group[j][p] {
						continue
					}
					// Keep p unless some other shared production sits
					// strictly above it on the leftmost frontier.
					dominated := false
					for q := range group[i] {
						if q != p && group[j][q] && closure[q][p] && !closure[p][q] {
							dominated = true
							break
						}
					}
					if !dominated {
						out[p] = true
					}
				}
			}
		}
	}

	for _, name := range a.Grammar.Order {
		if !a.Reachable[name] {
			continue
		}
		p := a.Grammar.Prods[name]
		if p.Choice == nil {
			continue
		}
		peg.Walk(p.Choice, func(e peg.Expr) {
			switch e := e.(type) {
			case *peg.Choice:
				if len(e.Alts) < 2 {
					return
				}
				group := make([]map[string]bool, len(e.Alts))
				for i, alt := range e.Alts {
					group[i] = expand(alt)
				}
				mark(group)
			case *peg.Seq:
				// Items up to and including the first non-nullable one
				// all start at the sequence's own position.
				var group []map[string]bool
				for _, it := range e.Items {
					group = append(group, expand(it.Expr))
					if !a.exprNullable(it.Expr) {
						break
					}
				}
				if len(group) >= 2 {
					mark(group)
				}
			case *peg.LeftRec:
				if len(e.Suffixes) < 2 {
					return
				}
				group := make([]map[string]bool, len(e.Suffixes))
				for i, s := range e.Suffixes {
					group[i] = expand(s)
				}
				mark(group)
			}
		})
	}
	return out
}

// CycleBreakers returns the productions that must be memoized, beyond
// memo, so that every call cycle passes through a memoized production.
// The backtrack prefixes cover re-entry before any input is read, but a
// retry can also re-enter a production after a shared consumed prefix:
// `E = "(" E ")" "x" / "(" E ")" "y"` re-enters E one byte in. Without a
// column that doubles the work per nesting level, and nesting runs
// around a call cycle. Once every cycle holds a memoized production,
// each memoized body runs at most once per position (while the memo
// budget is not shedding) and the productions between them form an
// acyclic graph, so no input can make the work exponential.
//
// Without left recursion every cycle has an edge whose call site reads
// input first. Breakers are picked among the targets of those edges —
// the nesting entry points (an expression after "(", a statement after
// "{"), which run once per nesting level rather than once per token —
// greedily by how many such edges inside the cycle enter them. Members
// marked memo count as memoized; transient members are never picked,
// so a cycle of transient productions stays unmemoized, as it is in
// the interpreter.
func (a *Analysis) CycleBreakers(memo map[string]bool) map[string]bool {
	attrs := func(name string) peg.Attr { return a.Grammar.Prods[name].Attrs }
	calls := map[string][]string{}
	consuming := map[[2]string]bool{}
	for _, name := range a.Grammar.Order {
		p := a.Grammar.Prods[name]
		if !a.Reachable[name] || p.Choice == nil {
			continue
		}
		all := map[string]bool{}
		peg.Walk(p.Choice, func(e peg.Expr) {
			if nt, ok := e.(*peg.NonTerm); ok {
				all[nt.Name] = true
			}
		})
		left := map[string]bool{}
		a.leftCalls(p.Choice, left)
		for _, callee := range sortedKeys(all) {
			calls[name] = append(calls[name], callee)
			if !left[callee] {
				consuming[[2]string{name, callee}] = true
			}
		}
	}

	out := map[string]bool{}
	memoized := func(name string) bool {
		return memo[name] || out[name] || attrs(name).Has(peg.AttrMemo)
	}
	for {
		added := false
		for _, scc := range sccs(a.Grammar.Order, calls, memoized) {
			in := make(map[string]bool, len(scc))
			for _, n := range scc {
				in[n] = true
			}
			// score[n] counts consuming edges inside the component
			// that enter n; -1 marks a member that cannot be picked.
			score := map[string]int{}
			cyclic := false
			for _, n := range scc {
				if attrs(n).Has(peg.AttrTransient) {
					score[n] = -1
				}
			}
			for _, n := range scc {
				for _, m := range calls[n] {
					if !in[m] {
						continue
					}
					cyclic = true
					if consuming[[2]string{n, m}] && score[m] >= 0 {
						score[m]++
					}
				}
			}
			if !cyclic {
				continue
			}
			best := ""
			for _, n := range scc {
				if score[n] >= 0 && (best == "" || score[n] > score[best]) {
					best = n
				}
			}
			if best != "" {
				out[best] = true
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// sccs returns the strongly connected components of the call graph
// over the productions skip reports false for, each listed in order's
// order (Tarjan's algorithm).
func sccs(order []string, calls map[string][]string, skip func(string) bool) [][]string {
	pos := make(map[string]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	var visit func(n string)
	visit = func(n string) {
		index[n] = len(index)
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range calls[n] {
			if skip(m) {
				continue
			}
			if _, seen := index[m]; !seen {
				visit(m)
				low[n] = min(low[n], low[m])
			} else if onStack[m] {
				low[n] = min(low[n], index[m])
			}
		}
		if low[n] != index[n] {
			return
		}
		var comp []string
		for {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[m] = false
			comp = append(comp, m)
			if m == n {
				break
			}
		}
		sort.Slice(comp, func(i, j int) bool { return pos[comp[i]] < pos[comp[j]] })
		out = append(out, comp)
	}
	for _, n := range order {
		if _, seen := index[n]; !seen && !skip(n) {
			visit(n)
		}
	}
	return out
}
