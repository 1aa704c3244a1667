package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"modpeg/internal/grammars"
	"modpeg/internal/registry"
	"modpeg/internal/serve"
	gen "modpeg/internal/workload"
)

// A workload is a seeded, fixed request sequence in three phases. The
// sequence is built entirely from the seed and the run length, so two
// runs with the same arguments send byte-identical requests in the same
// order; the server receives nothing but the generated bodies.

// item is one distinct parse request of a workload's pool.
type item struct {
	grammar string // bundled grammar the input belongs to (the oracle's reference)
	tenant  string // registry tenant; "" parses against the static grammar
	input   string
	omit    bool // omit_value: the response carries no AST
	wantErr bool // the input was corrupted and must be rejected with 422
	body    []byte
}

// opKind distinguishes the two operations a sequence issues.
type opKind uint8

const (
	opParse  opKind = iota
	opUpload        // POST /grammars/{tenant}/{grammar}, then DELETE of the version two back
)

// op is one step of a request sequence.
type op struct {
	kind    opKind
	item    int // opParse: index into workload.items
	tenant  string
	grammar string
}

// workload is the generated request sequence of one run.
type workload struct {
	name     string
	grammars []string // grammars a set-up request must have answered
	items    []item
	// uploadSlots are the (tenant, grammar) pairs the run uploads to
	// before its first request (tenant-mixed only).
	uploadSlots []op
	warmup      []op
	closed      []op
	// open is the open phase, one arrival schedule, analysed in
	// consecutive windows of openWindow operations.
	open       []op
	openWindow int
	// cycleLen is the number of operations in one cycle of the mix.
	cycleLen int
	// openRate is the open-loop arrival rate in operations per second.
	openRate float64
	// sources holds the upload body of each uploaded grammar: its
	// bundled source, unchanged, so the oracle's reference stays valid.
	sources map[string][]byte
}

// workloadSpec fixes the constants of one workload. Both are constants
// of the benchmark, never measured at run time, so every run on every
// commit does equal work.
//
// seqRPS sizes the request sequence for a requested run length: the
// seed commit's closed-loop throughput on a 2-core machine. java-omit
// takes java-valued's, so the two send the exact same sequence and
// differ only in omit_value. openRPS is the open-loop arrival rate, about
// half of the workload's own seed closed-loop throughput.
type workloadSpec struct {
	name            string
	seqRPS, openRPS float64
	build           func(seed int64) *workload
	// cycle returns the n-th shuffled cycle of the weighted request mix.
	cycle func(rng *rand.Rand, n int) []op
}

var specs = []workloadSpec{
	{name: "java-valued", seqRPS: 160, openRPS: 80, build: func(seed int64) *workload { return javaWorkload("java-valued", seed, false) }, cycle: javaCycle},
	{name: "java-omit", seqRPS: 160, openRPS: 195, build: func(seed int64) *workload { return javaWorkload("java-omit", seed, true) }, cycle: javaCycle},
	{name: "tenant-mixed", seqRPS: 2250, openRPS: 1125, build: tenantWorkload, cycle: tenantCycle},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// minOpenParses is the size of an open-phase window: with 1,000
// latency samples p99 has ten samples beyond it.
const minOpenParses = 1000

// closedShare is the part of the run length the closed phase fills at
// seqRPS; the open phase fills the rest at seqRPS/2, in whole windows,
// at least one.
const closedShare = 0.5

// makeWorkload builds the full request sequence of a run of the named
// workload: seconds sizes the two measured phases.
func makeWorkload(spec workloadSpec, seed int64, seconds int) (*workload, error) {
	w := spec.build(seed)
	w.openRate = spec.openRPS
	rng := rand.New(rand.NewSource(seed))
	cycle := spec.cycle(rand.New(rand.NewSource(0)), 0)
	count := func(ops float64, unit int) int { return max(1, int(math.Round(ops/float64(unit)))) }

	closedCycles := count(closedShare*float64(seconds)*spec.seqRPS, len(cycle))
	windowCycles := (minOpenParses + parses(cycle) - 1) / parses(cycle)
	w.cycleLen = len(cycle)
	w.openWindow = windowCycles * len(cycle)
	openCycles := windowCycles * count((1-closedShare)*float64(seconds)*spec.seqRPS/2, w.openWindow)
	n := 0
	next := func() []op {
		n++
		return spec.cycle(rng, n-1)
	}
	w.warmup = append(w.warmup, next()...)
	for i := 0; i < openCycles; i++ {
		w.open = append(w.open, next()...)
	}
	for i := 0; i < closedCycles; i++ {
		w.closed = append(w.closed, next()...)
	}
	for i := range w.items {
		w.items[i].body = requestBody(&w.items[i])
	}
	w.sources = map[string][]byte{}
	for _, ops := range [][]op{w.uploadSlots, w.warmup, w.open, w.closed} {
		for _, o := range ops {
			if o.kind != opUpload || w.sources[o.grammar] != nil {
				continue
			}
			src, err := grammars.Source(o.grammar)
			if err != nil {
				return nil, err
			}
			if w.sources[o.grammar], err = json.Marshal(registry.Upload{Source: src}); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func parses(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opParse {
			n++
		}
	}
	return n
}

func requestBody(it *item) []byte {
	body, err := json.Marshal(serve.ParseRequest{
		Grammar:   it.grammar,
		Tenant:    it.tenant,
		Input:     it.input,
		OmitValue: it.omit,
	})
	if err != nil {
		panic(err) // a struct of strings and bools always marshals
	}
	return body
}

// ---------------------------------------------------------------- java

// javaSizes is a log grid over 4-64 KB, and javaWeights the requests per
// cycle at each size: proportional to 1/size, so every size class
// carries about the same bytes and small programs dominate the count.
var (
	javaSizes   = []int{4096, 5793, 8192, 11585, 16384, 23170, 32768, 46341, 65536}
	javaWeights = []int{16, 11, 8, 6, 4, 3, 2, 1, 1}
)

// javaVariants is the number of distinct programs per size class;
// successive cycles rotate through them, so the rare large requests do
// not all hit one program.
const javaVariants = 4

// javaUploads is the number of java.core uploads the warm-up makes,
// measuring what an upload of a large grammar costs.
const javaUploads = 31

func javaWorkload(name string, seed int64, omit bool) *workload {
	w := &workload{name: name, grammars: []string{"java.core"}}
	for k, size := range javaSizes {
		for v := 0; v < javaVariants; v++ {
			src := gen.JavaProgram(gen.Config{Seed: seed*1000 + int64(k*javaVariants+v), Size: size})
			w.items = append(w.items, item{grammar: "java.core", input: src, omit: omit})
		}
	}
	for i := range w.items {
		w.warmup = append(w.warmup, op{kind: opParse, item: i})
	}
	for i := 0; i < javaUploads; i++ {
		w.warmup = append(w.warmup, op{kind: opUpload, tenant: "bench", grammar: "java.core"})
	}
	return w
}

// javaCycle is one shuffled cycle of the weighted java mix.
func javaCycle(rng *rand.Rand, n int) []op {
	var ops []op
	for k, weight := range javaWeights {
		for j := 0; j < weight; j++ {
			ops = append(ops, op{kind: opParse, item: k*javaVariants + (n+j)%javaVariants})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// -------------------------------------------------------- tenant-mixed

var (
	tenantNames    = []string{"t0", "t1"}
	tenantGrammars = []string{"calc.full", "json.value"}
	// tenantSizes is a log grid over 64 B-4 KB; tenantWeights the
	// requests per cycle per (tenant, grammar) at each size.
	tenantSizes   = []int{64, 128, 256, 512, 1024, 2048, 4096}
	tenantWeights = []int{8, 6, 4, 3, 2, 1, 1}
)

// tenantVariants is the number of valid inputs per (grammar, size),
// rotated through like javaVariants; each (grammar, size) also has one
// corrupted input.
const tenantVariants = 2

// tenantErrorsPerCycle of the cycle's 100 parses send a corrupted input.
const tenantErrorsPerCycle = 5

// tenantInput returns the index of the (grammar, size, variant) input;
// variant tenantVariants is the corrupted one.
func tenantInput(g, k, v int) int {
	return (g*len(tenantSizes)+k)*(tenantVariants+1) + v
}

func tenantWorkload(seed int64) *workload {
	w := &workload{name: "tenant-mixed"}
	for _, t := range tenantNames {
		for _, g := range tenantGrammars {
			w.grammars = append(w.grammars, t+"/"+g)
			w.uploadSlots = append(w.uploadSlots, op{kind: opUpload, tenant: t, grammar: g})
		}
	}
	// Inputs are shared by both tenants: the pool holds one item per
	// (tenant, input).
	var inputs []item
	for g, grammar := range tenantGrammars {
		for k, size := range tenantSizes {
			for v := 0; v <= tenantVariants; v++ {
				cfg := gen.Config{Seed: seed*1000 + int64(tenantInput(g, k, v)), Size: size}
				var src string
				if grammar == "calc.full" {
					src = gen.ExpressionExt(cfg)
				} else {
					src = gen.JSONDoc(cfg)
				}
				it := item{grammar: grammar, input: src}
				if v == tenantVariants {
					it.input, it.wantErr = corrupt(src, rand.New(rand.NewSource(cfg.Seed))), true
				}
				inputs = append(inputs, it)
			}
		}
	}
	for _, t := range tenantNames {
		for _, in := range inputs {
			in.tenant = t
			w.items = append(w.items, in)
		}
	}
	for i := range w.items {
		w.warmup = append(w.warmup, op{kind: opParse, item: i})
	}
	return w
}

// corrupt inserts a byte neither grammar accepts outside a string
// literal, right after a separator both generators only emit outside
// strings: the result always fails to parse.
func corrupt(src string, rng *rand.Rand) string {
	var at []int
	for i := 0; i < len(src); i++ {
		if src[i] == ',' || src[i] == ' ' && i > 0 && strings.ContainsRune("+-*/^<>=", rune(src[i-1])) {
			at = append(at, i+1)
		}
	}
	pos := len(src) / 2
	if len(at) > 0 {
		pos = at[rng.Intn(len(at))]
	}
	return src[:pos] + "@" + src[pos:]
}

// tenantCycle is one shuffled cycle: 100 parses spread over both
// tenants and grammars, five of them corrupted, followed by one upload
// that rotates over the four (tenant, grammar) slots.
func tenantCycle(rng *rand.Rand, n int) []op {
	perTenant := len(tenantGrammars) * len(tenantSizes) * (tenantVariants + 1)
	var ops []op
	for ti := range tenantNames {
		for g := range tenantGrammars {
			for k, weight := range tenantWeights {
				for j := 0; j < weight; j++ {
					ops = append(ops, op{kind: opParse, item: ti*perTenant + tenantInput(g, k, (n+j)%tenantVariants)})
				}
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	// The first tenantErrorsPerCycle slots of the shuffled cycle switch
	// to the corrupted input of their (tenant, grammar, size).
	for i := 0; i < tenantErrorsPerCycle; i++ {
		ops[i].item += tenantVariants - ops[i].item%(tenantVariants+1)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	slot := n % (len(tenantNames) * len(tenantGrammars))
	ops = append(ops, op{kind: opUpload, tenant: tenantNames[slot/len(tenantGrammars)], grammar: tenantGrammars[slot%len(tenantGrammars)]})
	return ops
}

// describe names an op for mismatch reports.
func (w *workload) describe(o op) string {
	if o.kind == opUpload {
		return fmt.Sprintf("upload %s/%s", o.tenant, o.grammar)
	}
	it := w.items[o.item]
	name := it.grammar
	if it.tenant != "" {
		name = it.tenant + "/" + name
	}
	return fmt.Sprintf("parse %s (%d bytes, item %d)", name, len(it.input), o.item)
}
