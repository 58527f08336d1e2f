package overload

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"marion/internal/driver"
)

// Bundle is the replayable quarantine record a breaker trip leaves
// behind: everything needed to reproduce the failing compilation
// offline with `marionc -replay <dir>`. The bundle is a directory of
// two files — config.json (this struct) and input.il (the module as
// textual IL, printed by internal/iltext from the request source) — so
// it is diffable and hand-editable while minimizing.
type Bundle struct {
	// Key is the tripped breaker's key (target/strategy).
	Key string `json:"key"`
	// Target and Strategy reproduce the compilation.
	Target   string `json:"target"`
	Strategy string `json:"strategy"`
	// Reason is the failure that tripped the breaker.
	Reason string `json:"reason"`
	// Failures is the consecutive-failure count at trip time.
	Failures int `json:"failures"`
	// Options are the back end options the request compiled under.
	Options BundleOptions `json:"options"`
}

// BundleOptions are the back end options that cross a wire: a client
// sets them per request (server.CompileOptions is this type) and a
// quarantine bundle records them for replay. Zero values mean "the
// receiver's default".
type BundleOptions struct {
	// Workers bounds the per-function back end pool (default: the
	// server's per-request worker count), capped at GOMAXPROCS. Output
	// is byte-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Verify runs the machine-description-driven verifier; findings are
	// returned (they do not fail the request).
	Verify bool `json:"verify,omitempty"`
	// Strict disables the graceful-degradation ladder.
	Strict bool `json:"strict,omitempty"`
	// BudgetMs is the per-function compilation budget in milliseconds
	// (default: the server's). A request deadline still applies on top:
	// whichever expires first interrupts the function.
	BudgetMs int64 `json:"budget_ms,omitempty"`
}

// Config maps the wire options onto the back end's option struct — the
// one place the two meet, shared by the request path and by
// `marionc -replay`. base supplies everything the wire does not carry
// (cache, faults, span) plus the Workers and Budget defaults that a zero
// wire value leaves in force. A wire Workers is capped at GOMAXPROCS:
// output is the same for any count, and more workers than cores only
// buys one request more goroutines and worker arenas.
func (o BundleOptions) Config(base driver.Config) driver.Config {
	base.Verify, base.Strict = o.Verify, o.Strict
	if o.Workers > 0 {
		base.Workers = min(o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.BudgetMs > 0 {
		base.Budget = time.Duration(o.BudgetMs) * time.Millisecond
	}
	return base
}

// ILFile and configFile are the bundle's member names.
const (
	ILFile     = "input.il"
	configFile = "config.json"
)

// WriteBundle writes a quarantine bundle under dir, in a fresh
// numbered subdirectory derived from the key (e.g. r2000-rase-2/), and
// returns that subdirectory's path.
func WriteBundle(dir string, b *Bundle, il string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := strings.NewReplacer("/", "-", "\\", "-", ":", "-").Replace(b.Key)
	var path string
	for n := 1; ; n++ {
		path = filepath.Join(dir, fmt.Sprintf("%s-%d", base, n))
		err := os.Mkdir(path, 0o755)
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			return "", err
		}
	}
	cfg, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(path, configFile), append(cfg, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(path, ILFile), []byte(il), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadBundle reads a quarantine bundle directory back: the config and
// the IL text.
func LoadBundle(path string) (*Bundle, string, error) {
	cfg, err := os.ReadFile(filepath.Join(path, configFile))
	if err != nil {
		return nil, "", err
	}
	b := &Bundle{}
	if err := json.Unmarshal(cfg, b); err != nil {
		return nil, "", fmt.Errorf("%s: %w", configFile, err)
	}
	il, err := os.ReadFile(filepath.Join(path, ILFile))
	if err != nil {
		return nil, "", err
	}
	return b, string(il), nil
}
