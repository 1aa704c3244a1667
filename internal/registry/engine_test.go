package registry

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modpeg"
)

// TestUploadEngineSelection covers the per-version engine choice: an
// upload may pick the compiled engine, the choice is reported in
// version listings, a later upload may switch back, and an unknown
// engine is rejected before a version number is consumed.
func TestUploadEngineSelection(t *testing.T) {
	r := testRegistry(t, Config{})
	info := mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Engine: "compiled"})
	if info.Engine != "compiled" {
		t.Fatalf("v1 engine = %q, want compiled", info.Engine)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "aaa") {
		t.Error(`"aaa" must parse on the compiled engine`)
	}
	if parseWith(t, r, "acme", "t.base", 0, "b") {
		t.Error(`"b" must not parse on the compiled engine`)
	}
	info = mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})
	if info.Engine != "optimized" {
		t.Fatalf("v2 engine = %q, want optimized (the default)", info.Engine)
	}
	if _, err := r.Upload(context.Background(), "acme", "t.base", Upload{Source: baseV2, Engine: "turbo"}); err == nil {
		t.Fatal("unknown engine must be rejected")
	}
}

// TestEngineChoiceSurvivesReload proves the engine choice is part of a
// version's persisted identity: after a restart the reloaded version
// still parses (it was recompiled on its recorded engine) and still
// reports the engine it was uploaded for.
func TestEngineChoiceSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	r := testRegistry(t, Config{Dir: dir})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Engine: "compiled"})

	r2 := testRegistry(t, Config{Dir: dir})
	if !parseWith(t, r2, "acme", "t.base", 0, "aa") {
		t.Error("reloaded compiled version must serve")
	}
	listing := r2.List()
	if len(listing.Tenants) != 1 || len(listing.Tenants[0].Grammars) != 1 {
		t.Fatalf("reloaded listing = %+v, want one tenant with one grammar", listing)
	}
	vs := listing.Tenants[0].Grammars[0].Versions
	if len(vs) != 1 || vs[0].Engine != "compiled" {
		t.Fatalf("reloaded versions = %+v, want one compiled version", vs)
	}
}

// TestHotSwapEngineRace hot-swaps a grammar between the optimized and
// compiled engines while parse traffic hammers it from many
// goroutines. Every request leases one immutable version, so no parse
// may ever observe a mixed program: whichever engine a request lands
// on, the accept/reject answer is identical, and nothing races (-race
// is the real assertion here).
func TestHotSwapEngineRace(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})

	input := strings.Repeat("a", 512)
	var stop atomic.Bool
	var wg sync.WaitGroup
	const goroutines = 6
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				lease, err := r.Acquire("acme", "t.base", 0)
				if err != nil {
					t.Errorf("goroutine %d: acquire: %v", g, err)
					return
				}
				_, _, perr := lease.Parser.ParseWith(context.Background(), "req", input, modpeg.ParseOptions{Limits: lease.Limits})
				if perr != nil {
					t.Errorf("goroutine %d: %q must parse on %s: %v", g, "a...", lease.Label, perr)
					lease.Release()
					return
				}
				if _, _, perr := lease.Parser.ParseWith(context.Background(), "req", "b"+input, modpeg.ParseOptions{Limits: lease.Limits}); perr == nil {
					t.Errorf("goroutine %d: %q must be rejected on %s", g, "b...", lease.Label)
					lease.Release()
					return
				}
				lease.Release()
			}
		}(g)
	}
	// Control plane: flip the engine back and forth under load.
	engines := []string{"compiled", "", "compiled", "", "compiled"}
	for _, eng := range engines {
		if _, err := r.Upload(context.Background(), "acme", "t.base", Upload{Source: baseV1, Engine: eng}); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("hot-swap upload (engine %q): %v", eng, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
