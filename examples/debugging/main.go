// Debugging: the grammar-development workflow — static checks, lint,
// syntax errors with positions and expectations, and the production-call
// trace.
//
// Run with:
//
//	go run ./examples/debugging
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"modpeg"
	"modpeg/internal/vm"
)

// buggyGrammar contains the mistakes the toolchain is built to catch.
const buggyGrammar = `
module buggy;

public S = Expr ;

// Indirect left recursion: rejected (only the direct form transforms).
Expr = Term "+" Expr / Term ;
Term = Expr "*" [0-9] / [0-9] ;
`

// smellyGrammar is well-formed but deserves lint warnings.
const smellyGrammar = `
module smelly;

public S = Op [0-9] ;
Op = "<" / "<=" ;
Unused = "zzz" ;
`

func main() {
	// 1. Composition-time rejection of untransformable left recursion.
	fmt.Println("## static checks")
	_, err := modpeg.New("buggy", modpeg.WithModules(map[string]string{"buggy": buggyGrammar}))
	fmt.Println("buggy grammar rejected:")
	fmt.Println(indentLines(err.Error()))

	// 2. Lint findings on a well-formed grammar.
	fmt.Println("\n## lint")
	smelly, err := modpeg.New("smelly", modpeg.WithModules(map[string]string{"smelly": smellyGrammar}))
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range smelly.Lint() {
		fmt.Println("  lint:", w)
	}

	// 3. Syntax errors carry positions, the offending byte, and what the
	// parser was trying to match.
	fmt.Println("\n## syntax errors")
	calc, err := modpeg.New("calc.full")
	if err != nil {
		log.Fatal(err)
	}
	_, err = calc.Parse("broken.calc", "1 + (2 ** ) - 3")
	if pe, ok := err.(*vm.ParseError); ok {
		fmt.Println(indentLines(pe.Detail()))
	}

	// 4. The call trace shows the parse as it happens — entries, exits,
	// and memo hits.
	fmt.Println("\n## trace (first lines)")
	var trace strings.Builder
	opts := modpeg.ParseOptions{Hook: calc.NewTraceText(&trace)}
	if _, _, err := calc.ParseWith(context.Background(), "in", "1+2", opts); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(trace.String(), "\n")
	if len(lines) > 14 {
		lines = lines[:14]
	}
	fmt.Println(indentLines(strings.Join(lines, "\n")))
}

func indentLines(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
