package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/core"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// fuzzProgram compiles a single-module grammar without a *testing.T,
// for use from testing.F setup.
func fuzzProgram(body string, opts Options) (*Program, error) {
	g, err := core.Compose("m", core.MapResolver{"m": "module m;\n" + body})
	if err != nil {
		return nil, err
	}
	out, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		return nil, err
	}
	return Compile(out, opts)
}

// FuzzParseContext throws arbitrary inputs and randomized Limits at the
// governed entry point. The invariants, regardless of input or budget:
// no panic escapes a governed Parse (a contained *EngineError is a bug too
// — containment exists for real engine bugs, and the fuzzer must not be
// able to trigger one), and when a governed parse succeeds its value
// matches the ungoverned parse — budgets and shedding may stop a parse,
// never change its answer.
func FuzzParseContext(f *testing.F) {
	progs := make([]*Program, 0, 2)
	for _, opts := range []Options{Optimized(), NaivePackrat()} {
		prog, err := fuzzProgram(calcGrammar, opts)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, prog)
	}
	f.Add("1 + 2*(3-4)", uint32(0), uint16(0), uint16(0), false, uint8(0))
	f.Add("((((1))))", uint32(100), uint16(3), uint16(0), true, uint8(1))
	f.Add("1+2", uint32(0), uint16(0), uint16(1), false, uint8(0))
	f.Add("(1+2)*3-4+(5*6)", uint32(64), uint16(0), uint16(0), false, uint8(1))
	f.Add("9**9", uint32(1), uint16(1), uint16(1), true, uint8(0))
	f.Fuzz(func(t *testing.T, input string, maxMemo uint32, maxDepth, timeoutMicros uint16, strict bool, engine uint8) {
		if len(input) > 1<<16 {
			t.Skip("bound per-exec work: governance behaviour is input-shape, not input-size")
		}
		prog := progs[int(engine)%len(progs)]
		lim := Limits{
			MaxMemoBytes:     int(maxMemo),
			MaxCallDepth:     int(maxDepth),
			MaxParseDuration: time.Duration(timeoutMicros) * time.Microsecond,
			Strict:           strict,
		}
		src := text.NewSource("fuzz", input)
		v, stats, err := prog.Parse(context.Background(), src, ParseOptions{Limits: lim})
		if err != nil {
			var ee *EngineError
			if errors.As(err, &ee) {
				t.Fatalf("fuzzer reached an engine panic: %v\n%s", ee, ee.Stack)
			}
			return
		}
		if lim.MaxMemoBytes > 0 && stats.MemoBytes > lim.MaxMemoBytes {
			t.Fatalf("memo footprint %d exceeds budget %d", stats.MemoBytes, lim.MaxMemoBytes)
		}
		want, _, err := prog.Parse(context.Background(), src, ParseOptions{})
		if err != nil {
			t.Fatalf("governed parse accepted what ungoverned rejects: %v", err)
		}
		if !ast.Equal(v, want) {
			t.Fatalf("governed value drifted\ninput: %q\nlimits: %+v", input, lim)
		}
	})
}
