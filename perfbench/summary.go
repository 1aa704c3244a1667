package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// summarize prints, per workload and metric, the median and quartiles
// over the runs saved in each directory (one run's standard output per
// file), so a directory per commit reads as a parent-vs-change table.
// The spread is (q3-q1)/median; with two directories the last column is
// the ratio of the second median to the first.
func summarize(w io.Writer, dirs []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("usage: perfbench summary DIR [DIR]")
	}
	type key struct{ workload, metric string }
	values := make([]map[key][]float64, len(dirs))
	units := map[key]string{}
	var keys []key
	for i, dir := range dirs {
		values[i] = map[key][]float64{}
		files, err := filepath.Glob(filepath.Join(dir, "*.out"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("%s holds no *.out run outputs", dir)
		}
		for _, f := range files {
			workload, res, err := readRun(f)
			if err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			for name, m := range res.metricsAndRecorded() {
				k := key{workload, name}
				if _, seen := units[k]; !seen {
					keys = append(keys, k)
					units[k] = m.Unit
				}
				values[i][k] = append(values[i][k], m.Value)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-26s %-9s", "workload", "metric", "unit")
	for _, d := range dirs {
		fmt.Fprintf(w, " | %-44s", d+": n median [q1 q3] spread")
	}
	if len(dirs) == 2 {
		fmt.Fprint(w, " | ratio")
	}
	fmt.Fprintln(w)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s %-26s %-9s", k.workload, k.metric, units[k])
		var meds []float64
		for i := range dirs {
			v := values[i][k]
			q1, med, q3 := quartiles(v)
			meds = append(meds, med)
			spread := "     -"
			if med != 0 {
				spread = fmt.Sprintf("%5.1f%%", 100*(q3-q1)/med)
			}
			fmt.Fprintf(w, " | %2d %10.4g [%10.4g %10.4g] %s", len(v), med, q1, q3, spread)
		}
		if len(dirs) == 2 {
			fmt.Fprintf(w, " | %.3f", meds[1]/meds[0])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// metricsAndRecorded merges a run's bounded and recorded metrics.
func (r result) metricsAndRecorded() map[string]metric {
	out := map[string]metric{}
	for k, v := range r.Metrics {
		out[k] = v
	}
	for k, v := range r.recorded {
		out[k] = v
	}
	return out
}

// readRun returns the workload and result of one saved run output,
// with the recorded metrics of its metadata.
func readRun(path string) (string, result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", result{}, err
	}
	defer f.Close()
	var workload, last string
	var m struct {
		Metadata struct {
			Workload string
			Recorded map[string]metric
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, `{"metadata":`) {
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				return "", result{}, err
			}
			workload = m.Metadata.Workload
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || workload == "" {
		return "", result{}, fmt.Errorf("not a complete run output (last line %.80q)", last)
	}
	res.recorded = m.Metadata.Recorded
	return workload, res, nil
}
