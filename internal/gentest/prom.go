package gentest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// ParsePrometheusText reads a Prometheus text-format exposition and
// validates it strictly: every sample line must parse (legal metric
// name, well-formed label set, float value), every sample's family
// must carry a # TYPE declaration, no (name, labels) pair may repeat,
// and every family declared as a histogram must be complete —
// cumulative, non-decreasing _bucket series ending in an le="+Inf"
// bucket that equals its _count. Returns the number of samples.
func ParsePrometheusText(r io.Reader) (int, error) {
	types := map[string]string{}
	seen := map[string]bool{}
	var samples []promSample

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return 0, fmt.Errorf("line %d: malformed %s comment: %q", lineno, fields[1], line)
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return 0, fmt.Errorf("line %d: TYPE wants name and kind: %q", lineno, line)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return 0, fmt.Errorf("line %d: unknown metric type %q", lineno, fields[3])
					}
					types[fields[2]] = fields[3]
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return 0, fmt.Errorf("line %d: %w", lineno, err)
		}
		key := fmt.Sprintf("%s%q", s.name, s.labels) // fmt sorts map keys
		if seen[key] {
			return 0, fmt.Errorf("line %d: duplicate sample %s", lineno, key)
		}
		seen[key] = true
		if _, ok := types[familyOf(s.name, types)]; !ok {
			return 0, fmt.Errorf("line %d: sample %s has no # TYPE declaration", lineno, s.name)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if err := checkHistograms(types, samples); err != nil {
		return 0, err
	}
	return len(samples), nil
}

// familyOf strips histogram/summary suffixes when the base name has a
// TYPE declaration.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

// checkHistograms verifies every declared histogram family is complete
// and internally consistent.
func checkHistograms(types map[string]string, samples []promSample) error {
	type hist struct {
		buckets []struct{ le, v float64 }
		inf     float64
		hasInf  bool
		count   float64
		hasCnt  bool
	}
	hs := map[string]*hist{}
	for name, t := range types {
		if t == "histogram" {
			hs[name] = &hist{}
		}
	}
	for _, s := range samples {
		base := familyOf(s.name, types)
		h, ok := hs[base]
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", base)
			}
			if le == "+Inf" {
				h.inf, h.hasInf = s.value, true
				break
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", base, le)
			}
			h.buckets = append(h.buckets, struct{ le, v float64 }{b, s.value})
		case strings.HasSuffix(s.name, "_count"):
			h.count, h.hasCnt = s.value, true
		}
	}
	for name, h := range hs {
		if !h.hasInf || !h.hasCnt {
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket or _count", name)
		}
		if h.inf != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", name, h.inf, h.count)
		}
		sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
		prev := math.Inf(-1)
		for _, b := range h.buckets {
			if b.v < prev {
				return fmt.Errorf("histogram %s: non-cumulative bucket at le=%v", name, b.le)
			}
			prev = b.v
		}
		if prev > h.inf {
			return fmt.Errorf("histogram %s: finite bucket exceeds +Inf bucket", name)
		}
	}
	return nil
}

func validMetricName(s string) bool { return validName(s, true) }

func validLabelName(s string) bool { return validName(s, false) }

// validName reports whether s is [a-zA-Z_][a-zA-Z0-9_]*, with ':'
// allowed anywhere when colon is set.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || colon && c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// parseSampleLine parses `name[{labels}] value [timestamp]`.
func parseSampleLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.name = line[:i]
	if !validMetricName(s.name) {
		return s, fmt.Errorf("bad metric name %q", s.name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q", s.name)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a `{name="value",...}` block starting at s[0] ==
// '{' and returns the index just past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		name := s[i:j]
		if !validLabelName(name) {
			return 0, nil, fmt.Errorf("bad label name %q", name)
		}
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: want quoted value", name)
		}
		var b strings.Builder
		i++
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(s) {
					return 0, nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i] {
				case '\\', '"':
					b.WriteByte(s[i])
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %s: bad escape \\%c", name, s[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels[name] = b.String()
	}
}
