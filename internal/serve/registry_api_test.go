package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modpeg"
	"modpeg/internal/registry"
)

// The registry lifecycle over HTTP: upload a base grammar, extend it
// with a modification module, hot-swap versions, pin, roll back — the
// full runtime surface the paper's modular syntax machinery enables.

const rtBase = `module t.base;
option root = Top;
public Top = Item+ EOF ;
Item = <a> "a" ;
void EOF = !. ;
`

const rtBaseV2 = `module t.base;
option root = Top;
public Top = Item+ EOF ;
Item = <a> "a" / <z> "z" ;
void EOF = !. ;
`

const rtExt = `module t.ext;
modify t.base;
option root = t.base.Top;
Item += <b> "b" ;
`

func registryServer(t *testing.T) http.Handler {
	t.Helper()
	reg, err := registry.New(registry.Config{
		DefaultLimits: modpeg.Limits{MaxInputBytes: 1 << 20, MaxCallDepth: 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return testServer(t, Config{Grammars: []string{"calc.core"}, Registry: reg})
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustUploadHTTP(t *testing.T, h http.Handler, tenant, name, src string) UploadResponse {
	t.Helper()
	body, err := json.Marshal(registry.Upload{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, h, http.MethodPost, "/grammars/"+tenant+"/"+name, string(body))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload %s/%s: status %d: %s", tenant, name, rec.Code, rec.Body.String())
	}
	var resp UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("upload response not JSON: %v", err)
	}
	return resp
}

func TestRegistryUploadAndParse(t *testing.T) {
	h := registryServer(t)
	up := mustUploadHTTP(t, h, "acme", "t.base", rtBase)
	if up.Version != 1 || !up.Active || up.Label != "acme/t.base@v1" {
		t.Fatalf("upload response = %+v", up)
	}

	rec := postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"aaa"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("tenant parse: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ParseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "acme" || resp.Version != 1 || resp.Grammar != "t.base" {
		t.Errorf("parse response = tenant %q grammar %q v%d", resp.Tenant, resp.Grammar, resp.Version)
	}

	// The static grammar table is unaffected by registry traffic.
	rec = postParse(t, h, `{"grammar":"calc.core","input":"1+2"}`)
	if rec.Code != http.StatusOK {
		t.Errorf("static parse broke: %d %s", rec.Code, rec.Body.String())
	}
	// The registry namespace is not reachable without the tenant field.
	rec = postParse(t, h, `{"grammar":"t.base","input":"aaa"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("tenant-less parse of a registry grammar: %d, want 400", rec.Code)
	}
	if e := decodeError(t, rec); e.Error != "unknown-grammar" {
		t.Errorf("tenant-less parse error code %q, want unknown-grammar", e.Error)
	}
}

func TestRegistryExtensionLifecycle(t *testing.T) {
	h := registryServer(t)
	mustUploadHTTP(t, h, "acme", "t.base", rtBase)
	mustUploadHTTP(t, h, "acme", "t.ext", rtExt)

	// The extension accepts what the base cannot.
	rec := postParse(t, h, `{"tenant":"acme","grammar":"t.ext","input":"ab"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("extension parse: %d %s", rec.Code, rec.Body.String())
	}
	rec = postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"ab"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("base must reject the extension's language: %d", rec.Code)
	}

	// Hot-swap the base and pin the old version.
	up := mustUploadHTTP(t, h, "acme", "t.base", rtBaseV2)
	if up.Version != 2 {
		t.Fatalf("second upload = %+v", up)
	}
	rec = postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"az"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("v2 parse: %d %s", rec.Code, rec.Body.String())
	}
	rec = postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"az","version":1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("pinned v1 must reject \"z\": %d %s", rec.Code, rec.Body.String())
	}
	var resp ParseResponse
	rec = postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"aa","version":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("pinned v1 parse: %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Version != 1 {
		t.Errorf("pinned parse echoed version %d, want 1", resp.Version)
	}

	// Roll back by deleting v2; the next parse serves v1 again.
	rec = doJSON(t, h, http.MethodDelete, "/grammars/acme/t.base/2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	var del registry.DeleteResult
	if err := json.Unmarshal(rec.Body.Bytes(), &del); err != nil || del.NewActive != 1 {
		t.Fatalf("delete result = %+v (err %v), want new_active 1", del, err)
	}
	rec = postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"az"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("post-rollback parse of \"az\": %d, want 422", rec.Code)
	}
}

func TestRegistryListAndGet(t *testing.T) {
	h := registryServer(t)
	mustUploadHTTP(t, h, "acme", "t.base", rtBase)

	rec := doJSON(t, h, http.MethodGet, "/grammars", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var listing registry.Listing
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 1 || listing.Tenants[0].Name != "acme" {
		t.Fatalf("listing = %+v", listing)
	}

	rec = doJSON(t, h, http.MethodGet, "/grammars/acme/t.base", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	var gi registry.GrammarInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &gi); err != nil {
		t.Fatal(err)
	}
	if gi.Active != 1 || len(gi.Versions) != 1 || gi.Versions[0].Label != "acme/t.base@v1" {
		t.Fatalf("grammar info = %+v", gi)
	}

	rec = doJSON(t, h, http.MethodGet, "/grammars/acme/t.missing", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("get missing grammar: %d, want 404", rec.Code)
	}
}

func TestRegistryErrorMapping(t *testing.T) {
	h := registryServer(t)
	mustUploadHTTP(t, h, "acme", "t.base", rtBase)

	cases := []struct {
		name       string
		method     string
		path, body string
		status     int
		errCode    string
	}{
		{"unknown tenant parse", http.MethodPost, "/parse",
			`{"tenant":"ghost","grammar":"t.base","input":"a"}`,
			http.StatusNotFound, "registry-not-found"},
		{"unknown version parse", http.MethodPost, "/parse",
			`{"tenant":"acme","grammar":"t.base","input":"a","version":9}`,
			http.StatusNotFound, "registry-not-found"},
		{"version without tenant", http.MethodPost, "/parse",
			`{"grammar":"calc.core","input":"1","version":2}`,
			http.StatusBadRequest, "bad-request"},
		{"production override with tenant", http.MethodPost, "/parse",
			`{"tenant":"acme","grammar":"t.base","input":"a","production":"Item"}`,
			http.StatusBadRequest, "bad-request"},
		{"non-module upload", http.MethodPost, "/grammars/acme/t.base",
			`{"source":"not a module"}`,
			http.StatusUnprocessableEntity, "registry-module"},
		{"bad tenant name upload", http.MethodPost, "/grammars/UPPER/t.base",
			`{"source":"module t.base;\npublic Top = \"a\" ;\n"}`,
			http.StatusBadRequest, "registry-bad-request"},
		{"unknown field upload", http.MethodPost, "/grammars/acme/t.base",
			`{"source":"x","bogus":1}`,
			http.StatusBadRequest, "bad-request"},
		// Uploads no longer choose an engine: the old field is unknown.
		{"engine field upload", http.MethodPost, "/grammars/acme/t.base",
			`{"source":"module t.base;\noption root = Top;\npublic Top = Item+ EOF ;\nItem = <a> \"a\" ;\nvoid EOF = !. ;\n","engine":"compiled"}`,
			http.StatusBadRequest, "bad-request"},
		{"bad delete version", http.MethodDelete, "/grammars/acme/t.base/zero", "",
			http.StatusBadRequest, "bad-request"},
		{"delete missing version", http.MethodDelete, "/grammars/acme/t.base/7", "",
			http.StatusNotFound, "registry-not-found"},
	}
	for _, tc := range cases {
		rec := doJSON(t, h, tc.method, tc.path, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		e := decodeError(t, rec)
		if e.Error != tc.errCode {
			t.Errorf("%s: error code %q, want %q", tc.name, e.Error, tc.errCode)
		}
	}

	// A smoke-gated upload surfaces as 422 registry-smoke.
	body, _ := json.Marshal(registry.Upload{
		Source: rtBase,
		Probes: []registry.Probe{{Name: "impossible", Input: "zz"}},
	})
	rec := doJSON(t, h, http.MethodPost, "/grammars/acme/t.base", string(body))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("smoke-failing upload: %d, want 422", rec.Code)
	}
	if e := decodeError(t, rec); e.Error != "registry-smoke" {
		t.Errorf("smoke failure error code %q", e.Error)
	}
}

func TestRegistryDisabled(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"a"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("tenant parse without registry: %d, want 400", rec.Code)
	}
	rec = doJSON(t, h, http.MethodGet, "/grammars", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /grammars without registry: %d, want 404", rec.Code)
	}
}

// TestRegistryMetricsLabel: registry-backed parses surface in /metrics
// under their tenant/grammar@version label — the acceptance criterion's
// observability half.
func TestRegistryMetricsLabel(t *testing.T) {
	h := registryServer(t)
	mustUploadHTTP(t, h, "acme", "t.base", rtBase)
	for i := 0; i < 3; i++ {
		if rec := postParse(t, h, `{"tenant":"acme","grammar":"t.base","input":"aaa"}`); rec.Code != http.StatusOK {
			t.Fatalf("parse %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := doJSON(t, h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `grammar="acme/t.base@v1"`) {
		t.Errorf("/metrics lacks the tenant/grammar@version label:\n%s",
			firstMatchingLines(rec.Body.String(), "grammar="))
	}
}

func firstMatchingLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
			if len(out) >= 10 {
				break
			}
		}
	}
	return strings.Join(out, "\n")
}
