package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"entangled/internal/api"
	"entangled/internal/engine"
	"entangled/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(engine.New(memStore(8), engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEveryOpBoundAndRouted pins the server side of the operation
// table: every descriptor in wire.Ops is bound to a serve function,
// every binary kind dispatches to its own op, and every route on the
// mux is some descriptor's — probed across methods and paths, nothing
// but a descriptor's pattern ever matches.
func TestEveryOpBoundAndRouted(t *testing.T) {
	s := newTestServer(t)
	bound := map[*wire.Op]bool{}
	for _, h := range s.bindOps() {
		if bound[h.op] {
			t.Fatalf("%s bound twice", h.op.Name)
		}
		bound[h.op] = true
	}
	patterns := map[string]bool{}
	for _, op := range wire.Ops {
		if !bound[op] {
			t.Fatalf("%s has no serve function", op.Name)
		}
		if op.Kind != 0 && s.ops[op.Kind].op != op {
			t.Fatalf("kind %v dispatches to the wrong op", op.Kind)
		}
		if op.Method != "" {
			patterns[op.Method+" "+op.Route] = true
		}
	}
	if len(bound) != len(wire.Ops) {
		t.Fatalf("%d ops bound, table has %d", len(bound), len(wire.Ops))
	}

	paths := []string{"/", "/v1", "/v1/", "/v1/sessions/x/other", "/debug/pprof/", "/v1/forward", "/v1/subscribe"}
	for _, op := range wire.Ops {
		if op.Method != "" {
			paths = append(paths, strings.Replace(op.Route, "{id}", "x", 1))
		}
	}
	matched := map[string]bool{}
	for _, method := range []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE"} {
		for _, path := range paths {
			_, pattern := s.mux.Handler(httptest.NewRequest(method, path, nil))
			if pattern == "" {
				continue
			}
			if !patterns[pattern] {
				t.Fatalf("%s %s matched %q, which no descriptor declares", method, path, pattern)
			}
			matched[pattern] = true
		}
	}
	if len(matched) != len(patterns) {
		t.Fatalf("descriptor routes reachable: %v of %v", matched, patterns)
	}
}

// repeatReader yields n copies of one byte without holding them.
type repeatReader struct {
	b byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.b
	}
	r.n -= len(p)
	return len(p), nil
}

// TestHTTPBodyBoundedLikeAFrame drives raw HTTP bodies: one larger than
// a binary frame may be, and one with data after its JSON value, both
// answer the bad_request a malformed binary body does and change
// nothing; trailing whitespace is fine.
func TestHTTPBodyBoundedLikeAFrame(t *testing.T) {
	s := newTestServer(t)
	post := func(body io.Reader) (int, *api.Error) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", body))
		if rec.Code < 400 {
			return rec.Code, nil
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("HTTP %d with unreadable envelope %q", rec.Code, rec.Body.String())
		}
		return rec.Code, env.Error
	}
	wantBad := func(what string, status int, we *api.Error, detail string) {
		t.Helper()
		if status != http.StatusBadRequest || we.Code != api.CodeBadRequest ||
			!strings.HasPrefix(we.Message, "decoding body: ") || !strings.Contains(we.Message, detail) {
			t.Fatalf("%s: HTTP %d %+v, want 400 bad_request decoding body: …%s", what, status, we, detail)
		}
	}

	huge := io.MultiReader(strings.NewReader(`{"id":"`), &repeatReader{b: 'a', n: wire.MaxFrame}, strings.NewReader(`"}`))
	status, we := post(huge)
	wantBad("oversized body", status, we, "too large")

	for _, junk := range []string{`{"id":"x"}junk`, `{"id":"x"}{"id":"y"}`, `{"id":"x"} 1`} {
		status, we = post(strings.NewReader(junk))
		wantBad(junk, status, we, "trailing data")
	}
	if n := s.reg.open(); n != 0 {
		t.Fatalf("rejected bodies created %d sessions", n)
	}
	if status, we = post(strings.NewReader("{\"id\":\"x\"} \n\t")); status != http.StatusCreated {
		t.Fatalf("trailing whitespace rejected: %d %+v", status, we)
	}
}
