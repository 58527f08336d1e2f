package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marion/internal/server"
)

// buildBundle writes a quarantine bundle as mariond would: the module
// as textual IL plus the recorded configuration.
func buildBundle(t *testing.T, target, strat string) string {
	t.Helper()
	file := writeTemp(t, "q.c", robustSrc)
	var il, errb strings.Builder
	if code := run([]string{"-emit-il", file}, &il, &errb); code != 0 {
		t.Fatalf("emit-il exit %d: %s", code, errb.String())
	}
	cfg, err := json.MarshalIndent(&server.Bundle{
		Key:      target + "/" + strat,
		Target:   target,
		Strategy: strat,
		Reason:   "injected panic at select",
		Failures: 2,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return writeBundleDir(t, string(cfg), il.String())
}

// writeBundleDir writes a bundle directory of the two members
// server.LoadBundle reads: config.json and the IL.
func writeBundleDir(t *testing.T, config, il string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range map[string]string{"config.json": config, server.ILFile: il} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReplayBundle pins -replay: the bundle compiles under its
// recorded target and strategy, byte-identical to compiling the same
// IL directly.
func TestReplayBundle(t *testing.T) {
	path := buildBundle(t, "r2000", "rase")

	var got, errb strings.Builder
	if code := run([]string{"-replay", path}, &got, &errb); code != 0 {
		t.Fatalf("replay exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "replaying") ||
		!strings.Contains(errb.String(), "r2000/rase") {
		t.Errorf("missing replay banner:\n%s", errb.String())
	}

	ilFile := writeTemp(t, "q.il", mustReadBundleIL(t, path))
	var want strings.Builder
	if code := run([]string{"-target", "r2000", "-strategy", "rase", ilFile},
		&want, &errb); code != 0 {
		t.Fatalf("direct compile exit %d: %s", code, errb.String())
	}
	if got.String() != want.String() {
		t.Errorf("replay output differs from direct compile:\n--- replay\n%s--- direct\n%s",
			got.String(), want.String())
	}
}

// TestReplayOverrides pins the minimization workflow: explicit flags
// beat the bundle's recorded configuration.
func TestReplayOverrides(t *testing.T) {
	path := buildBundle(t, "r2000", "rase")

	var got, errb strings.Builder
	if code := run([]string{"-replay", path, "-strategy", "postpass"},
		&got, &errb); code != 0 {
		t.Fatalf("replay exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "r2000/postpass") {
		t.Errorf("override not reflected in banner:\n%s", errb.String())
	}

	ilFile := writeTemp(t, "q.il", mustReadBundleIL(t, path))
	var want strings.Builder
	if code := run([]string{"-target", "r2000", "-strategy", "postpass", ilFile},
		&want, &errb); code != 0 {
		t.Fatalf("direct compile exit %d: %s", code, errb.String())
	}
	if got.String() != want.String() {
		t.Error("replay -strategy postpass differs from a direct postpass compile")
	}
}

// parentConfigJSON is a quarantine config.json exactly as mariond wrote
// it before the wire options became one type: the on-disk format is a
// compatibility surface, so it is pinned here as a literal, not
// re-marshalled from today's struct.
const parentConfigJSON = `{
  "key": "r2000/rase",
  "target": "r2000",
  "strategy": "rase",
  "reason": "injected fault at serve (r2000/rase)",
  "failures": 2,
  "options": {
    "workers": 1,
    "verify": true,
    "strict": true,
    "linear_select": true,
    "budget_ms": 30000
  }
}
`

// TestReplayParentFormatConfig replays a bundle whose config.json is
// the parent format's literal bytes: it must compile byte-identically
// to a direct compile of the same IL, every option the wire still
// carries must reach the back end (strict turns an injected failure
// fatal; -strict=false overrides it), and the retired linear_select
// key is ignored.
func TestReplayParentFormatConfig(t *testing.T) {
	il := mustReadBundleIL(t, buildBundle(t, "r2000", "rase"))
	dir := writeBundleDir(t, parentConfigJSON, il)

	var got, want, errb strings.Builder
	if code := run([]string{"-replay", dir}, &got, &errb); code != 0 {
		t.Fatalf("replay exit %d: %s", code, errb.String())
	}
	ilFile := writeTemp(t, "q.il", il)
	if code := run([]string{"-target", "r2000", "-strategy", "rase", "-verify", ilFile},
		&want, &errb); code != 0 {
		t.Fatalf("direct compile exit %d: %s", code, errb.String())
	}
	if got.String() != want.String() {
		t.Error("replay of a parent-format bundle differs from a direct compile")
	}

	// The recorded strict=true is honored: the injected failure is fatal.
	got.Reset()
	errb.Reset()
	if code := run([]string{"-replay", dir, "-faults", "select:err@fn=one"}, &got, &errb); code != 1 {
		t.Fatalf("strict replay under a fault: exit %d, want 1: %s", code, errb.String())
	}
	// An explicit flag beats the recording: the same fault now degrades.
	errb.Reset()
	if code := run([]string{"-replay", dir, "-faults", "select:err@fn=one", "-strict=false"},
		&got, &errb); code != 0 {
		t.Fatalf("-strict=false replay: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "one: degraded rase") {
		t.Errorf("missing degradation note:\n%s", errb.String())
	}
}

// TestReplayRejectsArgs: -replay takes no positional file.
func TestReplayRejectsArgs(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-replay", "somewhere", "extra.c"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want usage error 2", code)
	}
}

// TestReplayMissingBundle: a bad directory is a compile failure, not a
// panic.
func TestReplayMissingBundle(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-replay", t.TempDir()}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
}

func mustReadBundleIL(t *testing.T, path string) string {
	t.Helper()
	_, il, err := server.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	return il
}
