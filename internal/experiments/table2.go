package experiments

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// table2Row is one phase of the system with its size in source lines
// (the paper reported C lines; we report Go lines of this reproduction,
// and Maril lines for the target-dependent parts the paper's CGG emitted
// as generated C).
type table2Row struct {
	phase string
	lines int
}

// table2Groups maps the paper's phases onto this repository's packages.
var table2Groups = []struct {
	phase string
	dirs  []string
}{
	{"Code Generator Generator (CGG: maril, mach)", []string{"internal/maril", "internal/mach"}},
	{"Target- and strategy-independent (TSI)", []string{
		"internal/ir", "internal/cc", "internal/ilgen", "internal/xform",
		"internal/sel", "internal/cdag", "internal/sched", "internal/regalloc",
		"internal/asm", "internal/driver", "internal/sim",
	}},
	{"Target-dependent (TD), descriptions", []string{"internal/targets"}},
	{"Strategy-dependent (SD)", []string{"internal/strategy"}},
}

// table2Rows counts source lines under the repository root: the paper's
// phases, then every Go line of the tree in the three parts a simplicity
// PR reports (ROADMAP "House rules"). Hidden directories (.git, the
// benchmark's build cache) are skipped.
func table2Rows(root string) ([]table2Row, error) {
	perDir := map[string]int{}
	totals := []table2Row{
		{phase: "Whole tree: Go outside bench/, tests excluded"},
		{phase: "Whole tree: tests outside bench/"},
		{phase: "Whole tree: bench/"},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel, lines := filepath.ToSlash(rel), bytes.Count(src, []byte("\n"))
		switch {
		case strings.HasPrefix(rel, "bench/"):
			totals[2].lines += lines
		case strings.HasSuffix(rel, "_test.go"):
			totals[1].lines += lines
		default:
			totals[0].lines += lines
			perDir[path.Dir(rel)] += lines
		}
		return nil
	})
	var rows []table2Row
	for _, g := range table2Groups {
		total := 0
		for _, d := range g.dirs {
			total += perDir[d]
		}
		rows = append(rows, table2Row{phase: g.phase, lines: total})
	}
	return append(rows, totals...), err
}

// table2 renders Table 2.
func table2(root string) (string, error) {
	rows, err := table2Rows(root)
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-50s %6d\n", r.phase, r.lines)
	}
	return sb.String(), err
}
