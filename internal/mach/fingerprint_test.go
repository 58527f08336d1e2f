package mach_test

import (
	"regexp"
	"strings"
	"testing"

	"marion/internal/maril"
	"marion/internal/targets"
)

func parseFP(t *testing.T, file, src string) [32]byte {
	t.Helper()
	m, err := maril.Parse(file, src)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return m.Fingerprint()
}

// The fingerprint is the machine component of the compilation-cache
// key: two parses of one description text must agree, any edit to the
// text or to the machine name must change it, distinct targets must
// differ. (That a machine no description was parsed into has none is
// TestFinalizeDerivedTables' to check: it builds one.)
func TestMachineFingerprint(t *testing.T) {
	triple := regexp.MustCompile(`\(\d+,(\d+),\d+\)`)
	seen := map[[32]byte]string{}
	for _, name := range targets.Names() {
		src, err := targets.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		file := name + ".maril"
		fp := parseFP(t, file, src)
		if fp == ([32]byte{}) {
			t.Fatalf("%s: zero fingerprint", name)
		}
		if parseFP(t, file, src) != fp {
			t.Errorf("%s: two parses of the same text fingerprint differently", name)
		}
		if m, err := targets.Load(name); err != nil || m.Fingerprint() != fp {
			t.Errorf("%s: targets.Load disagrees with maril.Parse of targets.Source (%v)", name, err)
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s and %s share a fingerprint", name, prev)
		}
		seen[fp] = name

		// One digit of the first instruction's latency.
		loc := triple.FindStringSubmatchIndex(src)
		if loc == nil {
			t.Fatalf("%s: no (cost,latency,slots) to edit", name)
		}
		at := loc[3] - 1
		digit := src[at] + 1
		if digit > '9' {
			digit = '1'
		}
		if parseFP(t, file, src[:at]+string(digit)+src[at+1:]) == fp {
			t.Errorf("%s: a latency edit left the fingerprint alone", name)
		}

		// Without its %machine line a description is named after its
		// file: the same text under two names is two machines.
		i := strings.Index(src, "%machine")
		j := i + strings.IndexByte(src[i:], ';') + 1
		anon := src[:i] + src[j:]
		if parseFP(t, "one.maril", anon) == parseFP(t, "other.maril", anon) {
			t.Errorf("%s: the machine name is not part of the fingerprint", name)
		}
	}
}
