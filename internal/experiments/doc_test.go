package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"marion/internal/gentest"
)

// TestExperimentsMatchesCode holds every block EXPERIMENTS.md records to
// what marionstats prints; -update rewrites the blocks from the code.
// The shape tests in experiments_test.go assert what its prose claims of
// the same sweep.
func TestExperimentsMatchesCode(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := testSweep(t)
	var names, bodies []string
	for _, b := range blocks {
		body, err := b.body("../..", s)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		names, bodies = append(names, b.name), append(bodies, body)
	}
	text, diffs := pin(string(doc), names, bodies)
	if gentest.Updating() {
		if text != string(doc) {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, d := range diffs {
			t.Error(d + " (rerun with -update to rewrite it)")
		}
	}

	// A record one digit off, or under a renamed heading, must not pass.
	t.Run("planted", func(t *testing.T) {
		for i, name := range names {
			h := strings.Index(text, "\n## "+name+" ")
			at := h + strings.Index(text[h:], bodies[i]) + strings.IndexAny(bodies[i], "0123456789")
			digit := byte('0')
			if text[at] == '0' {
				digit = '1'
			}
			for breach, planted := range map[string]string{
				"digit":   text[:at] + string(digit) + text[at+1:],
				"heading": text[:h] + "\n## Renamed" + text[h+4+len(name):],
			} {
				if _, diffs := pin(planted, names, bodies); len(diffs) != 1 || !strings.Contains(diffs[0], name) {
					t.Errorf("%s with its %s changed: pin reports %q", name, breach, diffs)
				}
			}
		}
	})
}

// pin finds each block's record in doc — the first fenced block in the
// section whose "## " heading starts with the block's name — and returns
// doc with every record rewritten from bodies, and a message for each
// record that differs or is missing.
func pin(doc string, names, bodies []string) (string, []string) {
	var diffs []string
	for i, name := range names {
		h := strings.Index(doc, "\n## "+name+" ")
		if h < 0 {
			diffs = append(diffs, fmt.Sprintf("EXPERIMENTS.md has no heading %q", "## "+name))
			continue
		}
		section := doc[h+1:]
		if end := strings.Index(section, "\n## "); end >= 0 {
			section = section[:end]
		}
		open := strings.Index(section, "\n```\n")
		if open < 0 {
			diffs = append(diffs, fmt.Sprintf("EXPERIMENTS.md has no fenced block under %q", "## "+name))
			continue
		}
		start := h + 1 + open + len("\n```\n")
		end := start + strings.Index(doc[start:], "```\n")
		if got := doc[start:end]; got != bodies[i] {
			diffs = append(diffs, fmt.Sprintf("EXPERIMENTS.md's %s reads\n%s\nbut the code prints\n%s", name, got, bodies[i]))
		}
		doc = doc[:start] + bodies[i] + doc[end:]
	}
	return doc, diffs
}
