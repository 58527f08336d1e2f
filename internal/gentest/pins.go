package gentest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata pins from the current code")

// Updating reports whether the run rewrites its pins (-update).
func Updating() bool { return *update }

// Pins is one file of pinned digests under a package's testdata, a
// line per key:
//
//	<key> <sha256> <name>=<value>...
//
// The trailing fields, when there are any, narrow a mismatch down: a
// Line's parts (one function, one input) or any other named values. A
// test renders its lines and Checks each against the pinned line of the
// same key. Under -update nothing is compared, and the file is rewritten
// from the lines checked, in order, when the test ends without failing.
type Pins struct {
	path string
	want map[string]string
	out  bytes.Buffer
}

// ReadPins reads the pin file at path. Under -update a missing file
// reads as empty.
func ReadPins(t testing.TB, path string) *Pins {
	t.Helper()
	p := &Pins{path: path, want: map[string]string{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			key, _, _ := strings.Cut(l, " ")
			p.want[key] = l
		}
	case !*update:
		t.Fatal(err)
	}
	if *update {
		t.Cleanup(func() {
			if !t.Failed() {
				if err := os.WriteFile(path, p.out.Bytes(), 0o644); err != nil {
					t.Error(err)
				}
			}
		})
	}
	return p
}

// Check records line and compares it with the pinned line of its key,
// its first field. On a difference it fails t — the test that read the
// pins or one of its subtests — naming the key, the two digests and the
// first differing field, and returns that field's name (its text before
// '='; "" when only the digest differs) for the caller to show what
// changed.
func (p *Pins) Check(t testing.TB, line string) (field string, ok bool) {
	t.Helper()
	p.out.WriteString(line + "\n")
	key, _, _ := strings.Cut(line, " ")
	want, pinned := p.want[key]
	if *update || line == want {
		return "", true
	}
	g, w := strings.Fields(line), strings.Fields(want)
	if !pinned || len(w) < 2 || len(g) < 2 {
		t.Errorf("%s: no pinned line in %s", key, p.path)
		return "", false
	}
	t.Errorf("%s: digest %s, pinned %s", key, g[1], w[1])
	for i := 2; i < max(len(g), len(w)); i++ {
		now, was := "(none)", "(none)"
		if i < len(g) {
			now = g[i]
		}
		if i < len(w) {
			was = w[i]
		}
		if now != was {
			t.Errorf("%s: first difference %s, pinned %s", key, now, was)
			if i >= len(g) {
				now = was
			}
			name, _, _ := strings.Cut(now, "=")
			return name, false
		}
	}
	return "", false
}

// Line builds one pin line: a key, then named parts in order. The
// line's digest covers every part's name and text; each part adds the
// field <name>=<first four bytes of its text's sha256>.
type Line struct {
	key    string
	whole  hash.Hash
	fields []string
}

// NewLine starts the line of key.
func NewLine(key string) *Line { return &Line{key: key, whole: sha256.New()} }

// Add appends the part name, whose answer is text. A name holds no
// space and no '='.
func (l *Line) Add(name, text string) {
	for _, s := range []string{name, text} {
		l.whole.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(s))))
		l.whole.Write([]byte(s))
	}
	sum := sha256.Sum256([]byte(text))
	l.fields = append(l.fields, fmt.Sprintf("%s=%x", name, sum[:4]))
}

// String renders the line.
func (l *Line) String() string {
	return fmt.Sprintf("%s %x %s", l.key, l.whole.Sum(nil), strings.Join(l.fields, " "))
}
