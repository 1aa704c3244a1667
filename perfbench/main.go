// Command perfbench is the benchmark of the modpeg parse service. It
// builds nothing itself: run.sh builds `modpeg serve` and this command
// from the tree, then runs
//
//	perfbench -server BIN --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it spawns the server as its own process and drives one
// workload against it over at most nproc connections, printing the
// end-to-end metrics. With --trace 1 it replays the same workload
// in-process and prints the per-layer metrics. Either way every answer is
// checked, and the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// `perfbench summary DIR...` reads saved run outputs (one file per run,
// DIR per commit) and prints each metric's median and quartiles.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	recorded map[string]metric // from the metadata line, for summaries
}

// Units of the reported metrics, in reporting order.
var (
	endToEnd = []struct{ name, unit string }{
		{"setup_s", "s"},
		{"throughput_rps", "req/s"},
		{"cpu_ms_per_req", "ms"},
		{"latency_p50_ms", "ms"},
		{"upload_p50_ms", "ms"},
	}
	// recorded metrics are printed and kept in the run metadata but are
	// not among the bounded metrics of BENCHMARK.json (see NOTES.md).
	recorded = []struct{ name, unit string }{
		{"latency_p99_ms", "ms"},
		{"peak_rss_mb", "MB"},
		{"error_rate", "ratio"},
		{"gen_late_ms_p99", "ms"},
	}
	perLayer = []struct{ name, unit string }{
		{"serve.handler_us_p50", "us"},
		{"serve.decode_us_p50", "us"},
		{"serve.write_us_p50", "us"},
		{"serve.self_us_p50", "us"},
		{"serve.response_kb_p50", "KB"},
		{"registry.acquire_ns_p50", "ns"},
		{"registry.upload_ms_p50", "ms"},
		{"core.compose_ms", "ms"},
		{"transform.apply_ms", "ms"},
		{"vm.compile_ms", "ms"},
		{"vm.parse_us_p50", "us"},
		{"vm.parse_ns_per_byte", "ns/B"},
		{"vm.memo_hit_ratio", "ratio"},
		{"vm.calls_per_kb", "calls/KB"},
		{"vm.parse_allocs", "count"},
		{"vm.retained_kb_per_parse", "KB"},
		{"ast.encode_us_p50", "us"},
		{"ast.encode_allocs", "count"},
		{"trace.overhead_us_per_req", "us"},
	}
)

// maxBehind is how many arrivals the open-loop generator may run late at
// p99 before the run is marked invalid: beyond it, requests went out in
// bursts, and the offered load was not the scheduled one.
const maxBehind = 10

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summary" {
		if err := summarize(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench summary:", err)
			os.Exit(2)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: java-valued, java-omit or tenant-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 25, "run length: sizes the closed and open phases")
	trace := fs.Int("trace", 0, "0: end-to-end run against a spawned server; 1: in-process traced run")
	bin := fs.String("server", "", "the modpeg binary to spawn (end-to-end runs)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for registries and span files")
	conns := fs.Int("conns", min(2, runtime.NumCPU()), "client connections (at most nproc)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	spec, ok := specByName(*name)
	switch {
	case !ok:
		return 0, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return 0, errors.New("--seconds must be at least 1")
	case *conns < 1 || *conns > runtime.NumCPU():
		return 0, fmt.Errorf("--conns %d: want 1 to nproc (%d); more connections than cores measure the client, not the server", *conns, runtime.NumCPU())
	case *trace != 0 && *trace != 1:
		return 0, errors.New("--trace must be 0 or 1")
	case *trace == 0 && *bin == "":
		return 0, errors.New("an end-to-end run needs -server")
	}
	w, err := makeWorkload(spec, *seed, *seconds)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(*out, fmt.Sprintf("%s-%d-", spec.name, *seed))
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	if *trace == 0 {
		// One P per connection plus one for the open-loop dispatcher,
		// so the generator's wake-ups never wait for its own workers.
		runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), *conns+1))
	}
	meta := metadata(spec.name, *seed, *seconds, *trace)
	meta["phase_ops"] = map[string]int{"warmup": len(w.warmup), "closed": len(w.closed), "open": len(w.open)}
	var values map[string]float64
	var r *runner
	if *trace == 1 {
		spanFile := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, *seed))
		values, r, err = tracedRun(w, dir, spanFile)
		meta["spans"] = spanFile
	} else {
		values, r, err = endToEndRun(w, *bin, dir, *conns, meta)
	}
	if err != nil {
		return 0, err
	}
	res := result{Correct: r.failed.Load() == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metric{}}
	values["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	fmt.Fprintf(stdout, "perfbench %s seed %d (%s)\n", spec.name, *seed, map[int]string{0: "end to end", 1: "traced"}[*trace])
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return 0, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "  %-26s %14.4f %s\n", m.name, v, m.unit)
	}
	rec := map[string]metric{}
	for _, m := range recorded {
		if v, ok := values[m.name]; ok {
			rec[m.name] = metric{Value: v, Unit: m.unit}
			fmt.Fprintf(stdout, "  %-26s %14.4f %s (recorded)\n", m.name, v, m.unit)
		}
	}
	meta["recorded"] = rec
	for _, m := range r.mismatches {
		fmt.Fprintln(stdout, "  mismatch:", m)
	}
	if err := printJSON(stdout, map[string]any{"metadata": meta}); err != nil {
		return 0, err
	}
	if err := printJSON(stdout, res); err != nil {
		return 0, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setupReps is how many servers a run spawns to measure set-up; the last
// one serves the run. setup_s is their median.
const setupReps = 7

// endToEndRun spawns the server setupReps times, measuring set-up each
// time, and drives the last one through warm-up, the open phase and the
// closed phase. The server is never restarted and GC is never forced
// during the run.
func endToEndRun(w *workload, bin, dir string, conns int, meta map[string]any) (map[string]float64, *runner, error) {
	var setups []float64
	var srv *server
	var c *client
	r := newRunner(w, nil)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			c.close()
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		srv, c, d, err = setUp(r, bin, filepath.Join(dir, fmt.Sprintf("registry-%d", i)), conns)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.stop()
	defer c.close()

	r.warmup(w.warmup)
	// The open phase runs before the closed one: every parse grows the
	// server's heap (the value-arena retention), and tail latency measured
	// on the smaller heap varied about half as much between runs.
	open := r.openLoop(w.open, w.openRate, conns)
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	closed := r.closedLoop(w.closed, conns)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	var p50s, p99s []float64
	for start := 0; start < len(w.open); start += w.openWindow {
		end := start + w.openWindow
		window := sortedCopy(parseLatencies(w.open[start:end], open.latency[start:end]))
		med, _, err := percentile(window, 0.50)
		if err != nil {
			return nil, nil, err
		}
		p99, beyond, err := percentile(window, 0.99)
		if err != nil {
			return nil, nil, err
		}
		p50s, p99s = append(p50s, ms(med)), append(p99s, ms(p99))
		meta["latency_p99_beyond"] = beyond
	}
	late := sortedCopy(open.late)
	genLate, _, err := percentile(late, 0.99)
	if err != nil {
		return nil, nil, err
	}
	uploads := sortedCopy(r.uploadLat)

	meta["setup_s_each"] = setups
	meta["latency_p50_ms_each"] = p50s
	meta["latency_p99_ms_each"] = p99s
	meta["latency_window_samples"] = parses(w.open[:w.openWindow])
	meta["open_rate_ops"] = w.openRate
	meta["gen_late_ms_p50"] = ms(p50(late))
	meta["gen_late_ms_max"] = ms(late[len(late)-1])
	behind := genLate.Seconds() * w.openRate
	meta["valid"] = behind <= maxBehind
	meta["uploads"] = len(uploads)
	if behind > maxBehind {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: the open-loop generator ran %.1f arrivals late at p99 (%v)\n", behind, genLate)
	}
	return map[string]float64{
		"setup_s":         medianOf(setups),
		"throughput_rps":  float64(closed.ok) / closed.wall.Seconds(),
		"cpu_ms_per_req":  ms(cpu1-cpu0) / float64(closed.ops),
		"latency_p50_ms":  medianOf(p50s),
		"latency_p99_ms":  medianOf(p99s),
		"upload_p50_ms":   ms(p50(uploads)),
		"peak_rss_mb":     rss,
		"gen_late_ms_p99": ms(genLate),
	}, r, nil
}

// setUp spawns a server with a fresh registry directory and times it
// from spawn until it has answered one parse per workload grammar,
// after the set-up uploads of tenant-mixed.
func setUp(r *runner, bin, registryDir string, conns int) (*server, *client, time.Duration, error) {
	if err := os.MkdirAll(registryDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	srv, err := startServer(bin, registryDir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.base, conns)
	r.d = c
	var buf bytes.Buffer
	for _, o := range r.w.uploadSlots {
		if _, err := r.httpUpload(o, &buf); err != nil {
			c.close()
			srv.stop()
			return nil, nil, 0, fmt.Errorf("set-up upload %s/%s: %w", o.tenant, o.grammar, err)
		}
	}
	for _, g := range r.w.grammars {
		it := firstItem(r.w, g)
		r.attempted.Add(1)
		status, err := c.do("POST", "/parse", it.body, &buf)
		if err == nil && status != 200 {
			err = fmt.Errorf("answered %d: %.200s", status, buf.Bytes())
		}
		if err != nil {
			c.close()
			srv.stop()
			return nil, nil, 0, fmt.Errorf("set-up parse of %s: %w", g, err)
		}
	}
	return srv, c, time.Since(start), nil
}

// firstItem is the first valid input of a workload grammar, named
// "grammar" or "tenant/grammar".
func firstItem(w *workload, g string) *item {
	for i := range w.items {
		it := &w.items[i]
		name := it.grammar
		if it.tenant != "" {
			name = it.tenant + "/" + it.grammar
		}
		if name == g && !it.wantErr {
			return it
		}
	}
	panic("workload grammar without inputs: " + g)
}

// metadata describes the machine, toolchain and run.
func metadata(workload string, seed int64, seconds, trace int) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"commit":     commit,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}
