package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labels is an immutable-by-convention label set attached to a metric.
type Labels map[string]string

// render serialises labels deterministically as {k="v",...} (empty string
// for no labels).
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Collect receives the metrics a collector emits during one scrape.
type Collect struct {
	lines []string
}

// Gauge emits one scalar sample.
func (c *Collect) Gauge(name string, labels Labels, v float64) {
	c.lines = append(c.lines, fmt.Sprintf("%s%s %g", SanitizeMetricName(name), labels.render(), v))
}

// Counter emits one monotonic integer sample.
func (c *Collect) Counter(name string, labels Labels, v int64) {
	c.lines = append(c.lines, fmt.Sprintf("%s%s %d", SanitizeMetricName(name), labels.render(), v))
}

// Histogram emits h in Prometheus histogram exposition (`_bucket` with
// cumulative counts, `_sum`, `_count`) plus pre-computed
// `<name>_quantile_ns{q=...}` and `<name>_max_ns` gauges, so scrapers that
// do not aggregate histograms still see p50/p95/p99/max directly.
func (c *Collect) Histogram(name string, labels Labels, h *Histogram) {
	if h == nil {
		return
	}
	name = SanitizeMetricName(name)
	s := h.Snapshot()
	var cum uint64
	for i := 0; i < s.Buckets(); i++ {
		cum += s.Counts[i]
		le := "+Inf"
		if i < s.Buckets()-1 {
			le = fmt.Sprintf("%d", BucketBound(i))
		}
		lb := cloneLabels(labels)
		lb["le"] = le
		c.lines = append(c.lines, fmt.Sprintf("%s_bucket%s %d", name, lb.render(), cum))
	}
	c.lines = append(c.lines, fmt.Sprintf("%s_sum%s %d", name, labels.render(), s.Sum))
	c.lines = append(c.lines, fmt.Sprintf("%s_count%s %d", name, labels.render(), s.Count))
	for _, q := range []struct {
		tag string
		v   float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		lb := cloneLabels(labels)
		lb["q"] = q.tag
		c.lines = append(c.lines, fmt.Sprintf("%s_quantile_ns%s %d", name, lb.render(), s.Quantile(q.v)))
	}
	c.lines = append(c.lines, fmt.Sprintf("%s_max_ns%s %d", name, labels.render(), s.MaxNS))
}

// Registry collects metric sources and renders them in Prometheus text
// exposition format. Every source is a collector evaluated at scrape time
// — which is how the DSMS exports a monitor set that grows as queries
// register. Output is sorted by series, so scrapes are deterministic.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Collect)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector adds a scrape-time metric source.
func (r *Registry) RegisterCollector(fn func(*Collect)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// SanitizeMetricName maps an arbitrary identifier onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], replacing every other rune with '_'.
func SanitizeMetricName(s string) string {
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every registered metric in text exposition
// format, sorted by series name for scrape-to-scrape stability.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	var collectors []func(*Collect)
	collectors = append(collectors, r.collectors...)
	r.mu.Unlock()

	var c Collect
	for _, fn := range collectors {
		fn(&c)
	}
	sort.Strings(c.lines)
	for _, ln := range c.lines {
		if _, err := io.WriteString(w, ln+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func cloneLabels(l Labels) Labels {
	out := make(Labels, len(l)+1)
	for k, v := range l {
		out[k] = v
	}
	return out
}
