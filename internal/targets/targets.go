// Package targets holds the Maril machine descriptions shipped with
// Marion: TOYP (the paper's running example, Figures 1-3), the MIPS R2000,
// the Motorola 88000 and the Intel i860 model.
package targets

import (
	"fmt"
	"sort"
	"sync"

	"marion/internal/mach"
	"marion/internal/maril"
)

// sources maps each shipped target name to its Maril description.
// Custom descriptions go through core.NewFromDescription instead.
var sources = map[string]string{
	"toyp":   toypMaril,
	"r2000":  r2000Maril,
	"r2000s": r2000sMaril(),
	"m88000": m88000Maril,
	"i860":   i860Maril,
	"rs6000": rs6000Maril,
}

// Names returns the shipped target names, sorted.
func Names() []string {
	var out []string
	for n := range sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Source returns the Maril source text of a target.
func Source(name string) (string, error) {
	src, ok := sources[name]
	if !ok {
		return "", fmt.Errorf("targets: unknown target %q (have %v)", name, Names())
	}
	return src, nil
}

var (
	mu    sync.Mutex
	cache = map[string]*mach.Machine{}
	infos = map[string]*maril.Info{}
)

// Load parses and finalizes a shipped target description. Results are
// cached; machines are treated as immutable after load.
func Load(name string) (*mach.Machine, error) {
	m, _, err := LoadInfo(name)
	return m, err
}

// LoadInfo is Load plus description statistics (for Table 1).
func LoadInfo(name string) (*mach.Machine, *maril.Info, error) {
	mu.Lock()
	defer mu.Unlock()
	if m, ok := cache[name]; ok {
		return m, infos[name], nil
	}
	src, err := Source(name)
	if err != nil {
		return nil, nil, err
	}
	m, info, err := maril.ParseInfo(name+".maril", src)
	if err != nil {
		return nil, nil, err
	}
	cache[name] = m
	infos[name] = info
	return m, info, nil
}
