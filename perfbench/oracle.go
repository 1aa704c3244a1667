package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"modpeg"
	"modpeg/internal/ast"
)

// The oracle checks the server's answers against values computed here,
// in-process, by the reference engine: naive packrat over the baseline
// optimizations, the engine the conformance lanes treat as ground truth.
// Responses are decoded with encoding/json and compared by the walker
// below, never by re-encoding the reference with the encoder under test.

// expectation is what a verified response looked like: later responses
// to the same item must match it in status and normalized length.
type expectation struct {
	status int
	length int
	stats  string // the raw "stats" object, compared across omit/valued twins
}

// reference computes the expected outcome of every distinct input.
type reference struct {
	parsers map[string]*modpeg.Parser
}

func newReference() *reference { return &reference{parsers: map[string]*modpeg.Parser{}} }

func (r *reference) parse(grammar, input string) (modpeg.Value, error) {
	p := r.parsers[grammar]
	if p == nil {
		var err error
		p, err = modpeg.New(grammar,
			modpeg.WithEngine(modpeg.EngineNaivePackrat()),
			modpeg.WithOptimizations(modpeg.BaselineOptimizations()))
		if err != nil {
			return nil, fmt.Errorf("reference parser for %s: %w", grammar, err)
		}
		r.parsers[grammar] = p
	}
	// The server names every input "request" unless the body names it.
	v, _, err := p.ParseContextWithStats(context.Background(), "request", input, modpeg.Limits{})
	return v, err
}

// wireResponse is the part of a /parse response the oracle reads.
type wireResponse struct {
	Grammar  string          `json:"grammar"`
	Tenant   string          `json:"tenant"`
	Version  int             `json:"version"`
	Value    json.RawMessage `json:"value"`
	Stats    json.RawMessage `json:"stats"`
	Error    string          `json:"error"`
	Location *struct {
		Line   int `json:"line"`
		Column int `json:"column"`
		Offset int `json:"offset"`
	} `json:"location"`
}

// verify checks one response to it against the reference outcome and
// returns the expectation later responses to it must meet.
func (r *reference) verify(it *item, status int, body []byte) (expectation, error) {
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return expectation{}, fmt.Errorf("response is not JSON: %w", err)
	}
	exp := expectation{status: status, length: normalizedLength(body), stats: string(resp.Stats)}
	want, refErr := r.parse(it.grammar, it.input)
	if it.wantErr {
		var pe *modpeg.ParseError
		if !errors.As(refErr, &pe) {
			return exp, fmt.Errorf("corrupted input parsed in the reference engine (%v)", refErr)
		}
		loc := pe.Src.Location(pe.Pos)
		if status != 422 || resp.Error != "syntax" || resp.Location == nil {
			return exp, fmt.Errorf("want 422 syntax error, got %d %q", status, resp.Error)
		}
		if got := *resp.Location; got.Line != loc.Line || got.Column != loc.Column || got.Offset != int(loc.Offset) {
			return exp, fmt.Errorf("syntax error at %d:%d (offset %d), reference says %d:%d (offset %d)",
				got.Line, got.Column, got.Offset, loc.Line, loc.Column, loc.Offset)
		}
		return exp, nil
	}
	if refErr != nil {
		return exp, fmt.Errorf("reference engine rejected a generated input: %w", refErr)
	}
	if status != 200 {
		return exp, fmt.Errorf("want 200, got %d: %.200s", status, body)
	}
	if resp.Grammar != it.grammar || resp.Tenant != it.tenant || (it.tenant != "") != (resp.Version > 0) {
		return exp, fmt.Errorf("response routed to %s/%s@v%d", resp.Tenant, resp.Grammar, resp.Version)
	}
	if len(resp.Stats) == 0 {
		return exp, errors.New("response has no stats")
	}
	if it.omit {
		if len(resp.Value) != 0 {
			return exp, errors.New("omit_value response carries a value")
		}
		return exp, nil
	}
	var got any
	dec := json.NewDecoder(bytes.NewReader(resp.Value))
	dec.UseNumber()
	if err := dec.Decode(&got); err != nil {
		return exp, fmt.Errorf("value is not JSON: %w", err)
	}
	if err := sameValue(want, got, "value"); err != nil {
		return exp, err
	}
	return exp, nil
}

// sameValue walks the reference value and the decoded wire value in
// step. The wire form is
//
//	{"kind":"node","name":N,"start":S,"end":E,"children":[...]}
//	{"kind":"token","text":T,"start":S,"end":E}
//	{"kind":"list","items":[...]}
//	null
//
// with spans present only when valid and empty text, children and items
// omitted.
func sameValue(want modpeg.Value, got any, path string) error {
	if want == nil {
		if got != nil {
			return fmt.Errorf("%s: want null, got %T", path, got)
		}
		return nil
	}
	obj, ok := got.(map[string]any)
	if !ok {
		return fmt.Errorf("%s: want an object, got %T", path, got)
	}
	switch w := want.(type) {
	case *ast.Node:
		if w == nil {
			return sameValue(nil, got, path)
		}
		if err := sameFields(obj, path, "node", "name", w.Name, w.Span.IsValid(), int(w.Span.Start), int(w.Span.End)); err != nil {
			return err
		}
		return sameList(w.Children, obj["children"], path+"."+w.Name)
	case *ast.Token:
		if w == nil {
			return sameValue(nil, got, path)
		}
		return sameFields(obj, path, "token", "text", w.Text, w.Span.IsValid(), int(w.Span.Start), int(w.Span.End))
	case ast.List:
		if err := sameFields(obj, path, "list", "", "", false, 0, 0); err != nil {
			return err
		}
		return sameList(w, obj["items"], path+"[]")
	case string:
		return sameFields(obj, path, "token", "text", w, false, 0, 0)
	default:
		return sameFields(obj, path, "token", "text", fmt.Sprint(w), false, 0, 0)
	}
}

func sameFields(obj map[string]any, path, kind, textKey, text string, spanned bool, start, end int) error {
	if obj["kind"] != kind {
		return fmt.Errorf("%s: kind %v, want %s", path, obj["kind"], kind)
	}
	if textKey != "" {
		got, _ := obj[textKey].(string)
		if got != text {
			return fmt.Errorf("%s: %s %q, want %q", path, textKey, got, text)
		}
	}
	s, hasStart := obj["start"]
	e, hasEnd := obj["end"]
	if hasStart != spanned || hasEnd != spanned {
		return fmt.Errorf("%s: span present=%v, want %v", path, hasStart && hasEnd, spanned)
	}
	if spanned && (fmt.Sprint(s) != fmt.Sprint(start) || fmt.Sprint(e) != fmt.Sprint(end)) {
		return fmt.Errorf("%s: span %v-%v, want %d-%d", path, s, e, start, end)
	}
	return nil
}

func sameList(want []modpeg.Value, got any, path string) error {
	var items []any
	if got != nil {
		var ok bool
		if items, ok = got.([]any); !ok {
			return fmt.Errorf("%s: want an array, got %T", path, got)
		}
	}
	if len(items) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", path, len(items), len(want))
	}
	for i := range want {
		if err := sameValue(want[i], items[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
			return err
		}
	}
	return nil
}

// normalizedLength is the body length without the digits of the two
// fields that legitimately vary between identical requests: the parse
// duration and, for registry requests, the version that served it.
func normalizedLength(body []byte) int {
	// The duration is the body's last field and the version an early
	// one; neither key can occur inside the value, whose strings escape
	// every quote.
	const duration, version = `"duration_ns":`, `"version":`
	return len(body) - digitsAfter(body, bytes.LastIndex(body, []byte(duration)), len(duration)) -
		digitsAfter(body, bytes.Index(body, []byte(version)), len(version))
}

// digitsAfter counts the digits following the key found at i (-1: absent).
func digitsAfter(body []byte, i, keyLen int) int {
	if i < 0 {
		return 0
	}
	n := 0
	for j := i + keyLen; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		n++
	}
	return n
}
