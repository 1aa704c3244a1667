package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"modpeg"
)

// Disk layout (Config.Dir):
//
//	<dir>/<tenant>/tenant.json           {"limits": {...}}
//	<dir>/<tenant>/<grammar>/meta.json   {"active": N, "next": N, "probes": [...]}
//	<dir>/<tenant>/<grammar>/v<N>.mpeg   one source per live version
//
// Only successfully built versions are persisted — a failed upload
// leaves no trace on disk, so a restart reloads exactly the servable
// state. Writes happen on the control plane (upload/delete), never on
// the parse path. Persistence errors are reported on load (a corrupt
// store fails New) but tolerated on save: the registry keeps serving
// from memory and the next successful control-plane write retries.
//
// Tenant and grammar names are validated (tenantRe/grammarRe) before
// they ever reach the filesystem, so path traversal is structurally
// impossible.

type tenantMeta struct {
	Limits modpeg.Limits `json:"limits"`
	// SampleEvery and SlowParseMS persist the tenant's tail-latency
	// observability settings (sampled-profiling rate and flight-recorder
	// threshold) so a restart restores them alongside the budgets.
	SampleEvery int `json:"sample_every,omitempty"`
	SlowParseMS int `json:"slow_parse_ms,omitempty"`
}

type grammarMeta struct {
	Active int     `json:"active"`
	Next   int     `json:"next"`
	Probes []Probe `json:"probes,omitempty"`
}

// persistTenant writes the tenant's budget file. Caller holds r.mu.
func (r *Registry) persistTenant(t *tenant) {
	if r.cfg.Dir == "" {
		return
	}
	dir := filepath.Join(r.cfg.Dir, t.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(tenantMeta{
		Limits:      t.limits,
		SampleEvery: t.sampleEvery,
		SlowParseMS: int(t.slowParse / time.Millisecond),
	}, "", "  ")
	if err != nil {
		return
	}
	writeFileAtomic(filepath.Join(dir, "tenant.json"), append(data, '\n'))
}

// persistGrammar writes the grammar's sources and metadata. Caller
// holds g.mu.
func (r *Registry) persistGrammar(g *grammar) {
	if r.cfg.Dir == "" {
		return
	}
	dir := filepath.Join(r.cfg.Dir, g.tenant, g.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	keep := make(map[string]bool, len(g.versions)+1)
	keep["meta.json"] = true
	active := 0
	if a := g.active.Load(); a != nil {
		active = a.number
	}
	for _, v := range g.versions {
		if v.st != stateReady && v.st != stateActive {
			continue
		}
		fn := "v" + strconv.Itoa(v.number) + ".mpeg"
		keep[fn] = true
		path := filepath.Join(dir, fn)
		if _, err := os.Stat(path); err != nil { // sources are immutable: write once
			writeFileAtomic(path, []byte(v.source))
		}
	}
	meta := grammarMeta{Active: active, Next: g.nextVersion, Probes: g.probes}
	if data, err := json.MarshalIndent(meta, "", "  "); err == nil {
		writeFileAtomic(filepath.Join(dir, "meta.json"), append(data, '\n'))
	}
	// Drop files of deleted versions.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !keep[e.Name()] {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// removeGrammarDir deletes a grammar's (and, when emptied, its
// tenant's) persistence directory.
func (r *Registry) removeGrammarDir(tenantName, name string) {
	if r.cfg.Dir == "" {
		return
	}
	os.RemoveAll(filepath.Join(r.cfg.Dir, tenantName, name))
	tdir := filepath.Join(r.cfg.Dir, tenantName)
	if entries, err := os.ReadDir(tdir); err == nil {
		rest := 0
		for _, e := range entries {
			if e.Name() != "tenant.json" {
				rest++
			}
		}
		if rest == 0 {
			os.RemoveAll(tdir)
		}
	}
}

// writeFileAtomic writes data via a temp file + rename so a crashed
// write never leaves a torn file behind.
func writeFileAtomic(path string, data []byte) {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}

// load rebuilds the registry from Config.Dir: every persisted version
// is recompiled against the tenant's current active source set and
// re-smoked against the stored probe corpus, and the recorded active
// version reactivates (falling back to the highest version that still
// builds). A version that no longer composes — say its base grammar
// was since replaced by an incompatible one — is surfaced as a failed
// version rather than silently dropped.
func (r *Registry) load() error {
	tenants, err := os.ReadDir(r.cfg.Dir)
	if os.IsNotExist(err) {
		return os.MkdirAll(r.cfg.Dir, 0o755)
	}
	if err != nil {
		return fmt.Errorf("registry: reading %s: %w", r.cfg.Dir, err)
	}
	for _, te := range tenants {
		if !te.IsDir() || !tenantRe.MatchString(te.Name()) {
			continue
		}
		if err := r.loadTenant(te.Name()); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) loadTenant(tenantName string) error {
	tdir := filepath.Join(r.cfg.Dir, tenantName)
	t := &tenant{name: tenantName, limits: r.cfg.DefaultLimits, grammars: make(map[string]*grammar)}
	if data, err := os.ReadFile(filepath.Join(tdir, "tenant.json")); err == nil {
		var meta tenantMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return fmt.Errorf("registry: %s/tenant.json: %w", tenantName, err)
		}
		t.limits = meta.Limits
		t.sampleEvery = meta.SampleEvery
		t.slowParse = time.Duration(meta.SlowParseMS) * time.Millisecond
	}

	entries, err := os.ReadDir(tdir)
	if err != nil {
		return fmt.Errorf("registry: reading tenant %s: %w", tenantName, err)
	}
	// First pass: read every grammar's sources and metadata, so the
	// second pass can compose extensions against the full active set.
	type loaded struct {
		g       *grammar
		meta    grammarMeta
		sources map[int]string // version number -> source
	}
	var all []*loaded
	activeSources := make(map[string]string)
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) > maxGrammarName || !grammarRe.MatchString(e.Name()) {
			continue
		}
		gdir := filepath.Join(tdir, e.Name())
		var meta grammarMeta
		if data, err := os.ReadFile(filepath.Join(gdir, "meta.json")); err == nil {
			if err := json.Unmarshal(data, &meta); err != nil {
				return fmt.Errorf("registry: %s/%s/meta.json: %w", tenantName, e.Name(), err)
			}
		}
		l := &loaded{
			g:       &grammar{tenant: tenantName, name: e.Name(), probes: meta.Probes},
			meta:    meta,
			sources: make(map[int]string),
		}
		files, err := os.ReadDir(gdir)
		if err != nil {
			return fmt.Errorf("registry: reading %s/%s: %w", tenantName, e.Name(), err)
		}
		for _, f := range files {
			name := f.Name()
			if !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".mpeg") {
				continue
			}
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".mpeg"))
			if err != nil || n <= 0 {
				continue
			}
			data, err := os.ReadFile(filepath.Join(gdir, name))
			if err != nil {
				return fmt.Errorf("registry: reading %s/%s/%s: %w", tenantName, e.Name(), name, err)
			}
			l.sources[n] = string(data)
		}
		if len(l.sources) == 0 {
			continue
		}
		if src, ok := l.sources[meta.Active]; ok {
			activeSources[l.g.name] = src
		}
		all = append(all, l)
	}

	// Second pass: compile every version against the active set.
	for _, l := range all {
		numbers := make([]int, 0, len(l.sources))
		for n := range l.sources {
			numbers = append(numbers, n)
		}
		sort.Ints(numbers)
		for _, n := range numbers {
			src := l.sources[n]
			v := &version{number: n, source: src, created: time.Now().UTC(), st: stateCompiling}
			modules := make(map[string]string, len(activeSources)+1)
			for k, s := range activeSources {
				modules[k] = s
			}
			modules[l.g.name] = src
			parser, err := r.compile(l.g, v, modules)
			if err == nil {
				parser.SetSampling(t.sampleEvery)
				err = r.smoke(parser, l.g.probes, t.limits)
			}
			if err != nil {
				v.st = stateFailed
				v.failure = "reload: " + err.Error()
			} else {
				v.parser = parser
				v.st = stateReady
			}
			l.g.versions = append(l.g.versions, v)
		}
		l.g.nextVersion = l.meta.Next
		if last := numbers[len(numbers)-1]; l.g.nextVersion < last {
			l.g.nextVersion = last
		}
		// Reactivate: the recorded active version if it rebuilt, else
		// the highest version that did.
		var act *version
		for _, v := range l.g.versions {
			if v.st != stateReady {
				continue
			}
			if v.number == l.meta.Active {
				act = v
				break
			}
			if act == nil || v.number > act.number {
				act = v
			}
		}
		if act != nil {
			activateLocked(l.g, act)
		}
		t.grammars[l.g.name] = l.g
	}
	if len(t.grammars) > 0 || len(entries) > 0 {
		r.tenants[tenantName] = t
	}
	return nil
}
