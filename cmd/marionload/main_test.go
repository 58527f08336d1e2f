package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"marion/internal/server"
)

// TestBurstReport runs a small burst against an in-process server and
// checks the report: every request answered 2xx, the -json file written,
// and -slowest naming real request IDs.
func TestBurstReport(t *testing.T) {
	s, err := server.New(server.Config{Targets: []string{"r2000", "m88000"}, MaxInflight: 2, MaxQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	jsonPath := filepath.Join(t.TempDir(), "serve.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-n", "12", "-c", "3", "-deadline", "0,5000", "-json", jsonPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-json: %v\n%s", err, raw)
	}
	if rep.Requests != 12 || rep.OK != 12 || rep.Shed != 0 || rep.Other != 0 {
		t.Errorf("report %+v, want 12 requests all 2xx", rep)
	}
	ids := regexp.MustCompile(`(?m)^ +[0-9.]+ms  status 200  id=(\S+)$`).FindAllStringSubmatch(stdout.String(), -1)
	if len(ids) != 5 {
		t.Fatalf("-slowest 5 listed %d request IDs:\n%s", len(ids), stdout.String())
	}
	for _, m := range ids {
		if len(m[1]) < 8 {
			t.Errorf("slowest listing has a short request ID %q", m[1])
		}
	}
}

// TestUsageErrors pins the usage exit status: 2, before any request.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-deadline", "x"},
		{"-deadline", "100,-5"},
		{"-deadline", ","},
		{"-check"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-addr", "127.0.0.1:1"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, stderr.String())
		}
	}
}
