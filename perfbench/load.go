package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// doer sends one request and reads the whole response body into buf.
// The HTTP client is one implementation; the traced run's in-process
// handler is the other.
type doer interface {
	do(method, path string, body []byte, buf *bytes.Buffer) (status int, err error)
}

// client drives a spawned server over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// runner executes a workload's operations and checks every answer.
type runner struct {
	w   *workload
	d   doer
	ref *reference
	// upload performs an upload op and returns how long the upload
	// itself took; the traced run swaps in a direct registry call.
	upload func(o op, buf *bytes.Buffer) (time.Duration, error)

	expect []expectation // per item, from its verified warm-up response

	attempted, failed atomic.Int64

	mu         sync.Mutex
	mismatches []string
	uploadLat  []time.Duration
}

func newRunner(w *workload, d doer) *runner {
	r := &runner{w: w, d: d, ref: newReference(), expect: make([]expectation, len(w.items))}
	r.upload = r.httpUpload
	return r
}

// fail records one failed operation.
func (r *runner) fail(o op, err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s: %v", r.w.describe(o), err))
	}
	r.mu.Unlock()
}

// exec runs one operation of a timed phase, checking a parse answer's
// status and normalized length against its verified warm-up answer.
func (r *runner) exec(o op, buf *bytes.Buffer) bool {
	r.attempted.Add(1)
	if o.kind == opUpload {
		d, err := r.upload(o, buf)
		if err != nil {
			r.fail(o, err)
			return false
		}
		r.mu.Lock()
		r.uploadLat = append(r.uploadLat, d)
		r.mu.Unlock()
		return true
	}
	status, err := r.d.do(http.MethodPost, "/parse", r.w.items[o.item].body, buf)
	if err == nil {
		if e := r.expect[o.item]; status != e.status || normalizedLength(buf.Bytes()) != e.length {
			err = fmt.Errorf("got %d with %d bytes, verified answer was %d with %d bytes",
				status, normalizedLength(buf.Bytes()), e.status, e.length)
		}
	}
	if err != nil {
		r.fail(o, err)
		return false
	}
	return true
}

// httpUpload posts a new version and, once it is active, deletes the
// version two back so the grammar stays far below the version cap.
func (r *runner) httpUpload(o op, buf *bytes.Buffer) (time.Duration, error) {
	body := r.w.sources[o.grammar]
	path := "/grammars/" + o.tenant + "/" + o.grammar
	start := time.Now()
	status, err := r.d.do(http.MethodPost, path, body, buf)
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	var up struct{ Version int }
	if status != http.StatusCreated || json.Unmarshal(buf.Bytes(), &up) != nil || up.Version <= 0 {
		return 0, fmt.Errorf("upload answered %d: %.200s", status, buf.Bytes())
	}
	if up.Version > 2 {
		status, err := r.d.do(http.MethodDelete, fmt.Sprintf("%s/%d", path, up.Version-2), nil, buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("delete of v%d answered %d: %.200s", up.Version-2, status, buf.Bytes())
		}
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// warmup runs the unmeasured warm-up on one connection. The first
// answer to each distinct item is checked by the oracle and becomes the
// expectation every later answer to it must meet.
func (r *runner) warmup(ops []op) {
	var buf bytes.Buffer
	verified := make([]bool, len(r.w.items))
	for _, o := range ops {
		if o.kind == opUpload || verified[o.item] {
			r.exec(o, &buf)
			continue
		}
		verified[o.item] = true
		r.attempted.Add(1)
		if err := r.verify(o.item, &buf); err != nil {
			r.fail(o, err)
		}
	}
}

func (r *runner) verify(i int, buf *bytes.Buffer) error {
	it := &r.w.items[i]
	var twin expectation
	if it.omit {
		// An omit_value answer has no value to check: its valued twin
		// is checked instead, and the omitted answer must carry the
		// same parse statistics.
		valued := *it
		valued.omit = false
		status, err := r.d.do(http.MethodPost, "/parse", requestBody(&valued), buf)
		if err != nil {
			return err
		}
		if twin, err = r.ref.verify(&valued, status, buf.Bytes()); err != nil {
			return fmt.Errorf("valued twin: %w", err)
		}
	}
	status, err := r.d.do(http.MethodPost, "/parse", it.body, buf)
	if err != nil {
		return err
	}
	e, err := r.ref.verify(it, status, buf.Bytes())
	if err != nil {
		return err
	}
	if it.omit && e.stats != twin.stats {
		return fmt.Errorf("omit_value stats %s differ from the valued answer's %s", e.stats, twin.stats)
	}
	r.expect[i] = e
	return nil
}

// phase is what one measured phase recorded.
type phase struct {
	ops, ok int
	wall    time.Duration
	latency []time.Duration // open loop: per operation, from its due time
	late    []time.Duration // open loop: dispatch minus due time
}

// closedLoop runs ops over conns connections, each sending its next
// operation as soon as the previous one is answered.
func (r *runner) closedLoop(ops []op, conns int) phase {
	var next, okCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if r.exec(ops[i], &buf) {
					okCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return phase{ops: len(ops), ok: int(okCount.Load()), wall: time.Since(start)}
}

// openLoop sends op i at start + i/rate whether or not earlier ones
// were answered; conns connections serve the queue. Latency counts from
// the due time, so a stall also charges the requests queued behind it.
func (r *runner) openLoop(ops []op, rate float64, conns int) phase {
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	late := make([]time.Duration, len(ops))
	lat := make([]time.Duration, len(ops))
	queue := make(chan int, len(ops)) // every op is sent exactly once
	var okCount atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	go func() {
		for i := range ops {
			if d := time.Until(start.Add(due(i))); d > 0 {
				time.Sleep(d)
			}
			late[i] = time.Since(start.Add(due(i)))
			queue <- i
		}
		close(queue)
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				if r.exec(ops[i], &buf) {
					okCount.Add(1)
				}
				lat[i] = time.Since(start.Add(due(i)))
			}
		}()
	}
	wg.Wait()
	return phase{ops: len(ops), ok: int(okCount.Load()), wall: time.Since(start), latency: lat, late: late}
}

// parseLatencies picks the latencies of the parse operations.
func parseLatencies(ops []op, lat []time.Duration) []time.Duration {
	var out []time.Duration
	for i, o := range ops {
		if o.kind == opParse {
			out = append(out, lat[i])
		}
	}
	return out
}
