package gentest_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
)

// TestUnits: unit names are unique, every unit passes the front end of
// its language, Generated(24) is a prefix of Generated(100), and one
// digest over Generated(100)'s texts pins the stream the ilgen, cdag,
// xform and regalloc differentials draw from.
func TestUnits(t *testing.T) {
	gen := gentest.Generated(100)
	seen := map[string]bool{}
	for _, u := range slices.Concat(gentest.Golden(), gentest.Serve(), gen) {
		_, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil || seen[u.Name] || u.Lang != "c" && u.Lang != "il" {
			t.Errorf("%s (language %q, name taken before: %v): %v", u.Name, u.Lang, seen[u.Name], err)
		}
		seen[u.Name] = true
	}
	if !seen[gentest.BigBlock] || !seen[gentest.Pressure] {
		t.Error("gentest.Golden lacks a fixture")
	}
	if !slices.Equal(gentest.Generated(24), gen[:24]) {
		t.Error("Generated(24) is not a prefix of Generated(100)")
	}
	h := sha256.New()
	for _, u := range gen {
		h.Write([]byte(u.Text))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != "5bdbcf9a0f7a4edbbafccb8deaea54c9c4d31ac572cb58bcc67fdf499e408fbf" {
		t.Errorf("Generated(100) digest %s: the generator's stream changed", got)
	}
}
