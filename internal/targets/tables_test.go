package targets

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"marion/internal/gentest"
)

const tablesFile = "testdata/tables.sha256"

// TestDescriptionTablesPinned holds the tables a cache entry's text
// depends on by position — the templates' order in m.Instrs, the
// register sets' in m.RegSets, which numbers every physical register
// p<N> the text names — to a committed digest per target. The machine
// fingerprint is the digest of the description text, so a change to
// maril.Parse or mach.Finalize that derives other tables from the same
// text leaves the cache key alone, and a -cachedir written before the
// change would splice in registers that no longer mean what they did.
func TestDescriptionTablesPinned(t *testing.T) {
	pins := gentest.ReadPins(t, tablesFile)
	for _, name := range Names() {
		m, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, in := range m.Instrs {
			fmt.Fprintf(h, "instr %d %q %q\n", in.Index, in.Mnemonic, in.Label)
		}
		for _, rs := range m.RegSets {
			fmt.Fprintf(h, "regset %q %d\n", rs.Name, rs.PhysBase)
		}
		if _, ok := pins.Check(t, fmt.Sprintf("%s %x", name, h.Sum(nil))); !ok {
			t.Errorf("%s: m.Instrs or m.RegSets changed.\n"+
				"If the description text changed, rerun with -update. If it did not, Parse or Finalize now\n"+
				"derive other tables from the same text, and cache entries bind both by index: bump srcTag\n"+
				"in internal/maril/parser.go (maril.ParseInfo) so entries older builds wrote to a -cachedir\n"+
				"miss, then rerun with -update.", name)
		}
	}
}
