// Prometheus text exposition (version 0.0.4) for the registry: the
// writer renders every instrument — counters, gauges, and histograms
// with cumulative buckets. The tests check its output with
// gentest.ParsePrometheusText, a strict parser standing in for a real
// Prometheus scraper.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exported metric, per Prometheus naming
// convention.
const promPrefix = "marion_"

// promName converts a registry instrument name to a legal Prometheus
// metric name: the marion_ namespace prefix plus the name with every
// character outside [a-zA-Z0-9_:] replaced by '_'
// ("server.compile.seconds" -> "marion_server_compile_seconds").
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':',
			'0' <= c && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format, families sorted by name so the output is
// deterministic. Counters become counters, gauges gauges, and
// histograms full histogram families: cumulative _bucket series with
// le labels (ending at +Inf), plus _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n])
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", pn, formatFloat(bound), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", pn, formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", pn, h.Count)
	}
	return bw.Flush()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
