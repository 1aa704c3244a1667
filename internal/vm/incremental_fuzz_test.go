package vm

import (
	"context"
	"sync"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/core"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// FuzzIncrementalParse drives a Document through random edit scripts and
// holds every step to the from-scratch oracle: the value must be
// ast.Equal, the error string identical, and the document's memo
// footprint within the documented budget (a constant factor of a scratch
// parse of the same text). The edit scripts are decoded from raw fuzz
// bytes, so the corpus explores insertions, deletions, replacements, and
// batches at arbitrary offsets — including degenerate ones (empty edits,
// whole-document replacements, edits at both ends).
//
// Two fixed grammars are exercised: the calc expression grammar and a
// keyword-heavy statement language whose `!Word` keyword guards and
// `!Keyword` identifier guards generate real lookahead past match ends —
// the case the per-production watermarks exist for.

const fuzzStmtGrammar = `
option root = Program;
public Program = Spacing ss:Stmt* !. ;
Stmt =
    <if> "if" !Word Spacing "(" Spacing c:Expr ")" Spacing t:Stmt e:Else? @If
  / <block> "{" Spacing ss:Stmt* "}" Spacing @Block
  / <asgn> n:Ident "=" Spacing v:Expr ";" Spacing @Set
  ;
Else = "else" !Word Spacing s:Stmt ;
Expr = <add> l:Term "+" Spacing r:Expr @Add / Term ;
Term = Num / Ident / "(" Spacing e:Expr ")" Spacing ;
Num = v:$([0-9]+) !Word Spacing @Num ;
Ident = !Keyword v:$([a-z]+) !Word Spacing @Id ;
Keyword = ("if" / "else") !Word ;
void Word = [a-z0-9] ;
void Spacing = [ \t\n\r]* ;
`

var incrementalFuzzProgs = sync.OnceValue(func() [2]*Program {
	mk := func(body string) *Program {
		g, err := core.Compose("m", core.MapResolver{"m": "module m;\n" + body})
		if err != nil {
			panic(err)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			panic(err)
		}
		prog, err := Compile(tg, Optimized())
		if err != nil {
			panic(err)
		}
		return prog
	}
	return [2]*Program{mk(calcGrammar), mk(fuzzStmtGrammar)}
})

// decodeEditScript turns raw bytes into a sequence of edit batches over
// an evolving document length. Decoding is deterministic and
// length-aware: offsets are taken modulo the current text length so
// every script is valid by construction (validation rejections are
// tested separately; the fuzzer's job is the reuse machinery).
func decodeEditScript(script []byte, startLen int) [][]Edit {
	const fragments = "0123456789+*- ();ifelse{}=ab\n"
	var batches [][]Edit
	docLen := startLen
	i := 0
	next := func() int {
		if i >= len(script) {
			return 0
		}
		b := script[i]
		i++
		return int(b)
	}
	for i < len(script) && len(batches) < 24 {
		nEdits := 1 + next()%2
		var batch []Edit
		at := 0
		for e := 0; e < nEdits; e++ {
			if at > docLen {
				break
			}
			off := at
			if docLen-at > 0 {
				off = at + next()%(docLen-at+1)
			}
			op := next() % 3
			oldLen, newLen := 0, 0
			var txt string
			switch op {
			case 0: // insert
				n := 1 + next()%6
				start := next() % len(fragments)
				if start+n > len(fragments) {
					n = len(fragments) - start
				}
				txt = fragments[start : start+n]
				newLen = len(txt)
			case 1: // delete
				oldLen = next() % 8
				if off+oldLen > docLen {
					oldLen = docLen - off
				}
			default: // replace
				oldLen = next() % 4
				if off+oldLen > docLen {
					oldLen = docLen - off
				}
				start := next() % len(fragments)
				n := 1 + next()%3
				if start+n > len(fragments) {
					n = len(fragments) - start
				}
				txt = fragments[start : start+n]
				newLen = len(txt)
			}
			batch = append(batch, Edit{Off: off, OldLen: oldLen, NewLen: newLen, Text: txt})
			at = off + oldLen
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			docLen += e.NewLen - e.OldLen
		}
		batches = append(batches, batch)
	}
	return batches
}

func FuzzIncrementalParse(f *testing.F) {
	f.Add(uint8(0), "1 + 2*3 + (41*5)", []byte{3, 1, 0, 2, 9, 0, 1, 1, 5})
	f.Add(uint8(1), "a = 1; if (a) { b = a + 2; } else c = 3;", []byte{7, 2, 4, 0, 12, 1, 3, 9, 9, 2})
	f.Add(uint8(0), "", []byte{1, 0, 0, 5, 2})
	f.Add(uint8(1), "if (1) x = 2;", []byte{0, 1, 6, 200, 3, 4, 90, 17, 60, 2, 2, 2})
	f.Fuzz(func(t *testing.T, sel uint8, input string, script []byte) {
		if len(input) > 4<<10 || len(script) > 256 {
			t.Skip("oversized fuzz case")
		}
		prog := incrementalFuzzProgs()[int(sel)%2]
		d := prog.NewDocument(text.NewSource("fuzz", input))
		for _, batch := range decodeEditScript(script, len(input)) {
			if _, _, err := d.Apply(batch...); err != nil && d.Err() == nil {
				t.Fatalf("apply %+v rejected: %v", batch, err)
			}
			// Oracle: a from-scratch parse of the document's current text
			// (same source name, so error strings compare byte for byte).
			val, stats, err := prog.Parse(context.Background(), text.NewSource("fuzz", d.Text()), ParseOptions{})
			if errString(err) != errString(d.Err()) {
				t.Fatalf("error mismatch on %q\n doc:     %v\n scratch: %v",
					d.Text(), d.Err(), err)
			}
			if err == nil {
				if !ast.Equal(val, d.Value()) {
					t.Fatalf("value mismatch on %q\n doc:     %s\n scratch: %s",
						d.Text(), ast.Format(d.Value()), ast.Format(val))
				}
				budget := (incrementalGrowthFactor+1)*stats.MemoBytes + incrementalGrowthSlack
				if d.Stats().MemoBytes > budget {
					t.Fatalf("memo footprint %d exceeds budget %d (scratch %d) on %q",
						d.Stats().MemoBytes, budget, stats.MemoBytes, d.Text())
				}
			}
		}
	})
}
