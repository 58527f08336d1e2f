package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"marion/internal/gentest"
)

// TestExperimentsMatchesCode holds EXPERIMENTS.md's Table 1 and Table 2
// blocks (the first fenced block under each heading) to what
// FormatTable1 and FormatTable2 print, title line dropped; -update
// rewrites the blocks from the code.
func TestExperimentsMatchesCode(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2("../..")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, c := range []struct{ heading, out string }{{"Table 1", FormatTable1(t1)}, {"Table 2", FormatTable2(t2)}} {
		want := c.out[strings.IndexByte(c.out, '\n')+1:]
		at := regexp.MustCompile("(?s)\n## " + c.heading + " .*?\n```\n(.*?)```\n").FindStringSubmatchIndex(text)
		if at == nil {
			t.Fatalf("EXPERIMENTS.md has no fenced block under %q", c.heading)
		}
		if got := text[at[2]:at[3]]; got != want && !gentest.Updating() {
			t.Errorf("EXPERIMENTS.md's %s reads\n%s\nbut the code prints\n%s(rerun with -update to rewrite it)", c.heading, got, want)
		}
		text = text[:at[2]] + want + text[at[3]:]
	}
	if gentest.Updating() && text != string(doc) {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
