package server

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"marion/internal/gentest"
	"marion/internal/trace"
)

// FuzzCompileRequest posts fuzzed bytes to /compile under a fuzzed
// deadline header and request ID. The server must not panic, must
// answer one JSON value with a status the API documents, and must echo
// a request ID trace.ValidID accepts: the sent one when it is valid.
// Run it with -fuzzminimizetime 2s: minimizing a find grown from a
// serve unit compiles it once a step (DESIGN §11).
func FuzzCompileRequest(f *testing.F) {
	for _, c := range badRequests {
		f.Add([]byte(c.body), c.hdr[DeadlineHeader], "")
	}
	serve := gentest.Serve()
	var reqs []CompileRequest
	for _, lang := range []string{"c", "il"} {
		u := serve[slices.IndexFunc(serve, func(u gentest.Unit) bool { return u.Lang == lang })]
		reqs = append(reqs, CompileRequest{Source: u.Text, Lang: u.Lang, Filename: u.Name, Target: "r2000"})
	}
	// The C unit once more with every option set, at its extremes.
	opts := reqs[0]
	opts.Options = &CompileOptions{Workers: 1 << 20, Verify: true, Strict: true, BudgetMs: 1}
	var units [][]byte
	for _, req := range append(reqs, opts) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		units = append(units, body)
		f.Add(body, "", "")
	}
	for _, ms := range append([]string{"0", "-1", "abc"}, hugeDeadlines...) {
		f.Add(units[0], ms, "")
	}
	for _, id := range []string{clientID, hostileID} {
		f.Add(units[0], "", id)
	}

	// Short deadlines bound what one input can cost; a small cache
	// bounds what a long run keeps.
	s := newTestServer(f, Config{DefaultDeadline: time.Second, MaxDeadline: time.Second, CacheBytes: 1 << 20, TraceRing: 8})
	f.Fuzz(func(t *testing.T, body []byte, deadline, id string) {
		w := postRaw(s, body, map[string]string{DeadlineHeader: deadline, RequestIDHeader: id})
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		text := w.Body.String()
		dec := json.NewDecoder(strings.NewReader(text))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("status %d: body is not JSON (%v): %q", w.Code, err, text)
		}
		if err := dec.Decode(&v); err != io.EOF {
			t.Fatalf("status %d: more than one JSON value (%v)", w.Code, err)
		}
		got := w.Header().Get(RequestIDHeader)
		if !trace.ValidID(got) || trace.ValidID(id) && got != id {
			t.Fatalf("sent request ID %q, answered %q", id, got)
		}
	})
}
