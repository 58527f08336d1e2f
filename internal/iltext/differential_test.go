package iltext_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/livermore"
)

// handIL exercises what printed IL never contains: comments, blank
// runs, CR-LF, tabs, escaped and empty register names, tokens glued to
// parentheses, and a quoted keyword.
const handIL = "# leading comment\r\n" +
	"module hand.il   # trailing comment\n\n\n" +
	"global\tg int size 4 initi 1 -2 3\n" +
	"global pool double size 16 array initf 0.5 1e-3\n" +
	"func f ret int\n" +
	"reg t0 int \"a \\\"quoted\\\" name\"\n" +
	"reg t1 int \"\"\n" +
	"reg t2 int \"tab\\there\"#comment glued to a string\n" +
	"param a int size 4 offset 0 reg t0\n" +
	"local buf int size 16 offset -16 array\n" +
	"frame 16\n" +
	"block L0 depth 0\n" +
	"(asgn int t1(def $0(load int(addr g))))\n" +
	"( asgn int t2 ( add int $0 ( const int -7 ) ) )\n" +
	"(branch L2 (lt int (reg int t1) (reg int t2)))\n" +
	"block L1 depth 1\n" +
	"(store int (add ptr (fp) (const int -16)) (reg int \"t0\"))\n" +
	"block L2 depth 0\n" +
	"(ret int (reg int t2))\n"

// ilBases returns the IL texts the differential tests start from:
// Livermore, the examples/c units of gentest.Golden, and handIL.
func ilBases(t testing.TB) []string {
	t.Helper()
	suite, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	bases := []string{iltext.Print(suite)}
	for _, u := range gentest.Golden() {
		// parse_errors.golden pins the variants of examples/c alone.
		if u.Name == gentest.BigBlock || u.Name == gentest.Pressure {
			continue
		}
		mod, err := driver.Frontend(u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, iltext.Print(mod))
	}
	return append(bases, handIL)
}

// variants returns base, n truncations of it and n copies with one byte
// replaced by a character the lexer treats specially (or a harmless
// one), at offsets drawn from rng.
func variants(base string, rng *rand.Rand, n int) []string {
	const alphabet = "()\"#\n\r\t \\$@LtT-09x"
	out := []string{base}
	for i := 0; i < n; i++ {
		out = append(out, base[:rng.Intn(len(base))])
	}
	for i := 0; i < n; i++ {
		b := []byte(base)
		b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		out = append(out, string(b))
	}
	return out
}

// allVariants is the fixed input set of both tests below.
func allVariants(t testing.TB) []string {
	rng := rand.New(rand.NewSource(17))
	var out []string
	for i, base := range ilBases(t) {
		n := 60
		if i == 0 {
			n = 150 // Livermore is most of the IL in the tree
		}
		out = append(out, variants(base, rng, n)...)
	}
	return out
}

// lineShift reports whether src holds a backslash-newline, the one
// construct whose line accounting this parser corrects: when it falls
// inside a string literal, every later token is one line further on
// than the up-front tokenizer said, so the pins leave such inputs out.
func lineShift(src string) bool { return strings.Contains(src, "\\\n") }

// The on-demand lexer cuts the tokens the up-front tokenizer it
// replaced did — text, string flag and line — from every input,
// recorded in testdata/lexer.sha256; at a string literal its line does
// not close it stops with an error where the old tokenizer swallowed the
// newline and carried on, so there the pins hold the tokens before the
// literal and the error.
func TestLexerMatchesReference(t *testing.T) {
	pins := gentest.ReadPins(t, "testdata/lexer.sha256")
	line := gentest.NewLine("lexer")
	inputs := map[string]string{}
	unterminated, shifted, total := 0, 0, 0
	for i, src := range allVariants(t) {
		total++
		if lineShift(src) {
			shifted++
			continue
		}
		got, err := iltext.LexTokens(src)
		if err != nil {
			unterminated++
			if !strings.Contains(err.Error(), "unterminated string literal") {
				t.Fatalf("lexer error %v", err)
			}
		}
		var sb strings.Builder
		for _, tok := range got {
			fmt.Fprintf(&sb, "%d %t %q\n", tok.Line, tok.Str, tok.Text)
		}
		fmt.Fprintf(&sb, "error %v\n", err)
		name := fmt.Sprintf("%04d", i)
		line.Add(name, sb.String())
		inputs[name] = src
	}
	if name, ok := pins.Check(t, line.String()); !ok && name != "" {
		t.Errorf("variant %s now lexes differently\n%s", name, excerpt(inputs[name]))
	}
	if unterminated == 0 {
		t.Error("no variant left a string literal open")
	}
	if unterminated+shifted > total/10 {
		t.Errorf("%d of %d variants fall outside the comparison", unterminated+shifted, total)
	}
}

func excerpt(src string) string {
	if len(src) > 400 {
		return src[:400] + "..."
	}
	return src
}

// Parse gives every variant the verdict the parent commit's parser gave
// it — same message, same line — as recorded in
// testdata/parse_errors.golden by running this test with -update on
// the parent's code. Two verdicts may differ: an unterminated string
// literal is now an error of its own, and lines after a backslash-newline
// are now counted.
func TestParseErrorsMatchParent(t *testing.T) {
	const golden = "testdata/parse_errors.golden"
	var got bytes.Buffer
	inputs := allVariants(t)
	for i, src := range inputs {
		verdict := "ok"
		if _, err := iltext.Parse("v", src); err != nil {
			verdict = err.Error()
		}
		sum := sha256.Sum256([]byte(src))
		fmt.Fprintf(&got, "%04d %x %s\n", i, sum[:4], verdict)
	}
	if gentest.Updating() {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("%d verdicts, golden has %d", len(have), len(want))
	}
	differ, errors := 0, 0
	for i := range want {
		if !strings.HasSuffix(want[i], " ok") {
			errors++
		}
		if have[i] == want[i] {
			continue
		}
		if have[i][:13] != want[i][:13] {
			t.Fatalf("variant %d is not the input the golden file saw: %q vs %q", i, have[i][:13], want[i][:13])
		}
		if strings.Contains(have[i], "unterminated string literal") || lineShift(inputs[i]) {
			differ++
			continue
		}
		t.Errorf("variant %d:\n  now    %s\n  parent %s", i, have[i], want[i])
	}
	if errors < len(want)/2 {
		t.Errorf("only %d of %d variants fail to parse", errors, len(want))
	}
	if differ > len(want)/10 {
		t.Errorf("%d of %d verdicts differ by permission", differ, len(want))
	}
}

// An unterminated string literal is an error at the line of its opening
// quote, not a token that swallows the newline uncounted; a newline a
// backslash skips inside a literal is counted.
func TestStringLiteralLines(t *testing.T) {
	const head = "func f ret int\n"
	cases := []struct {
		name, src, want string
	}{
		{"open at newline", head + "reg t0 int \"abc\nbogus\n", "line 2: unterminated string literal"},
		{"open at end of input", head + "reg t0 int \"abc", "line 2: unterminated string literal"},
		{"lone quote at end of input", head + "reg t0 int \"", "line 2: unterminated string literal"},
		{"open after escaped quote", head + "reg t0 int \"abc\\\"\nbogus\n", "line 2: unterminated string literal"},
		{"backslash last", head + "reg t0 int \"abc\\", "line 2: unterminated string literal"},
		{"open beats arity", head + "reg t0 int\nblock L0 depth 0\n(asgn int t0 (add int (const int 1) \"x\n", "line 4: unterminated string literal"},
		{"open in a comment is no string", head + "# \"abc\nbogus\n", `line 3: unexpected "bogus"`},
		{"closed literal", head + "reg t0 int \"abc\"\nbogus\n", `line 3: unexpected "bogus"`},
		{"backslash-newline counted", head + "reg t0 int \"abc\\\ndef\"\nbogus\n", `line 4: unexpected "bogus"`},
		{"backslash-newline then open", head + "reg t0 int \"abc\\\ndef\nbogus\n", "line 2: unterminated string literal"},
	}
	for _, c := range cases {
		_, err := iltext.Parse("m", c.src)
		if err == nil || err.Error() != "m: "+c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, "m: "+c.want)
		}
	}
	// A literal that spans a backslash-newline keeps its raw text as the
	// name, as every literal strconv cannot unquote does.
	mod, err := iltext.Parse("m", head+"reg t0 int \"abc\\\ndef\"\nblock L0 depth 0\n(ret)\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := mod.Funcs[0].Regs[0].Name; got != "\"abc\\\ndef\"" {
		t.Errorf("register name %q", got)
	}
}
