// Jsontree: use the bundled JSON grammar as a real parser — decode the
// generic AST into Go values (map[string]any, []any, float64, string,
// bool, nil) and pretty-print them.
//
// Run with:
//
//	go run ./examples/jsontree
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"

	"modpeg"
)

const doc = `
{
  "name": "modpeg",
  "kind": "parser toolkit",
  "stable": true,
  "version": 0.1,
  "tags": ["peg", "packrat", "modular"],
  "limits": {"maxDepth": 1024, "strict": null}
}
`

func main() {
	parser, err := modpeg.New("json.value")
	if err != nil {
		log.Fatal(err)
	}
	value, stats, err := parser.ParseWith(context.Background(), "doc.json", doc, modpeg.ParseOptions{})
	if err != nil {
		log.Fatal(err)
	}
	decoded := decode(value)
	dump(decoded, 0)
	fmt.Printf("\nengine: %s\n", stats)
}

// decode converts the grammar's generic AST into plain Go values. The
// node names (Obj, Arr, Member, Str, Num, True, False, Null) come from
// the @Ctor annotations in json.value.mpeg.
func decode(v modpeg.Value) any {
	n, ok := v.(*modpeg.Node)
	if !ok {
		return nil
	}
	switch n.Name {
	case "Obj":
		m := map[string]any{}
		if n.NumChildren() == 1 { // (Obj (Members head tail))
			members := n.Child(0).(*modpeg.Node)
			for _, mem := range collect(members) {
				key := unquote(modpeg.TextOf(mem.Child(0)))
				m[key] = decode(mem.Child(1))
			}
		}
		return m
	case "Arr":
		var out []any
		if n.NumChildren() == 1 {
			elems := n.Child(0).(*modpeg.Node)
			head := elems.Child(0)
			out = append(out, decode(head))
			if tail, ok := elems.Child(1).(modpeg.List); ok {
				for _, e := range tail {
					out = append(out, decode(e))
				}
			}
		}
		return out
	case "Str":
		return unquote(modpeg.TextOf(n))
	case "Num":
		f, _ := strconv.ParseFloat(modpeg.TextOf(n), 64)
		return f
	case "True":
		return true
	case "False":
		return false
	case "Null":
		return nil
	}
	return nil
}

// collect flattens a Members node (head plus a list of tails) into the
// member nodes.
func collect(members *modpeg.Node) []*modpeg.Node {
	out := []*modpeg.Node{members.Child(0).(*modpeg.Node)}
	if tail, ok := members.Child(1).(modpeg.List); ok {
		for _, t := range tail {
			out = append(out, t.(*modpeg.Node))
		}
	}
	return out
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	s = strings.ReplaceAll(s, `\"`, `"`)
	s = strings.ReplaceAll(s, `\\`, `\`)
	return s
}

func dump(v any, depth int) {
	pad := strings.Repeat("  ", depth)
	switch v := v.(type) {
	case map[string]any:
		fmt.Println(pad + "{")
		// Stable order for display.
		var keys []string
		for k := range v {
			keys = append(keys, k)
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		for _, k := range keys {
			fmt.Printf("%s  %q:\n", pad, k)
			dump(v[k], depth+2)
		}
		fmt.Println(pad + "}")
	case []any:
		fmt.Println(pad + "[")
		for _, e := range v {
			dump(e, depth+1)
		}
		fmt.Println(pad + "]")
	default:
		fmt.Printf("%s%#v\n", pad, v)
	}
}
