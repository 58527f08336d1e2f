package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"marion/internal/driver"
	"marion/internal/iltext"
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
	Options CompileOptions `json:"options"`
}

// ILFile and configFile are the bundle's member names.
const (
	ILFile     = "input.il"
	configFile = "config.json"
)

// quarantine writes the replayable bundle for a breaker trip. The IL
// is re-lowered from the pristine request source at trip time: the
// compiled module was mutated in place by the glue transform, and
// under concurrency the tripping request cannot be predicted up front
// (other in-flight failures under the same key advance the streak), so
// capturing before the compile could leave the trip without a bundle.
// The bundle records the planned wire options with the server defaults
// that were in force filled in, so `marionc -replay` maps them back onto
// the same configuration.
func (s *Server) quarantine(rq *compileReq, reason error) {
	if s.cfg.QuarantineDir == "" {
		return
	}
	mod, err := driver.Lower(rq.req.Lang, rq.req.unitName(), rq.req.Source)
	if err != nil {
		return // cannot happen: the same source lowered earlier this request
	}
	s.quarC.Inc()
	opts := rq.opts
	opts.Workers, opts.BudgetMs = rq.cfg.Workers, rq.cfg.Budget.Milliseconds()
	_, _ = writeBundle(s.cfg.QuarantineDir, &Bundle{
		Key:      rq.bkey,
		Target:   rq.req.Target,
		Strategy: rq.strategy,
		Reason:   reason.Error(),
		Failures: s.cfg.BreakerThreshold,
		Options:  opts,
	}, iltext.Print(mod))
}

// writeBundle writes a quarantine bundle under dir, in a fresh
// numbered subdirectory derived from the key (e.g. r2000-rase-2/), and
// returns that subdirectory's path.
func writeBundle(dir string, b *Bundle, il string) (string, error) {
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
