package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric family type.
type Kind uint8

const (
	Counter Kind = iota
	Gauge
	Histogram
	Untyped
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one series produced by a collector-backed family: the label
// values (matching the family's declared label names) and the value at
// scrape time.
type Sample struct {
	Labels []string
	Value  float64
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram upper bounds, excluding +Inf

	collect func() []Sample // collector-backed family; nil for stored series

	mu     sync.Mutex
	series map[string]*Metric
}

// Counter registers (or returns the existing) counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *Vec {
	return &Vec{r.family(name, help, Counter, nil, labelNames)}
}

// Gauge registers (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *Vec {
	return &Vec{r.family(name, help, Gauge, nil, labelNames)}
}

// Histogram registers (or returns the existing) histogram family with the
// given strictly-increasing bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *Vec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
		}
	}
	return &Vec{r.family(name, help, Histogram, buckets, labelNames)}
}

// Func registers a collector-backed family: collect is called at every
// render and must return one Sample per live series. Histograms cannot be
// collector-backed.
func (r *Registry) Func(name, help string, kind Kind, labelNames []string, collect func() []Sample) {
	if kind == Histogram {
		panic("obs: histogram families cannot be collector-backed")
	}
	if collect == nil {
		panic("obs: nil collector for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic("obs: duplicate registration of " + name)
	}
	r.fams[name] = &family{name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...), collect: collect}
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labelNames {
		if !validLabelName(l) {
			panic("obs: invalid label name " + strconv.Quote(l) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) || f.collect != nil {
			panic("obs: conflicting re-registration of " + name)
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic("obs: conflicting re-registration of " + name)
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*Metric)}
	r.fams[name] = f
	return f
}

// Vec is a handle on a metric family; With resolves one labeled series,
// and Set moves the unlabeled series of a zero-label gauge.
type Vec struct{ fam *family }

// With returns the series for the given label values (created on first
// use). The number of values must match the family's declared labels.
func (v *Vec) With(labelValues ...string) *Metric {
	f := v.fam
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = &Metric{fam: f, labels: append([]string(nil), labelValues...)}
		if f.kind == Histogram {
			m.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = m
	}
	return m
}

func (v *Vec) Set(val float64) { v.With().Set(val) }

// Metric is one series: a counter/gauge value or a histogram.
type Metric struct {
	fam    *family
	labels []string

	mu     sync.Mutex
	val    float64
	counts []uint64 // histogram: per-bucket (non-cumulative), last is +Inf
	sum    float64
	count  uint64
}

// Add increments a counter or moves a gauge. Counters reject negative
// deltas (a decreasing counter breaks every rate() over it).
func (m *Metric) Add(d float64) {
	if m.fam.kind == Histogram {
		panic("obs: Add on histogram " + m.fam.name)
	}
	if m.fam.kind == Counter && d < 0 {
		panic("obs: negative Add on counter " + m.fam.name)
	}
	m.mu.Lock()
	m.val += d
	m.mu.Unlock()
}

// Inc adds one.
func (m *Metric) Inc() { m.Add(1) }

// Set moves a gauge to an absolute value.
func (m *Metric) Set(val float64) {
	if m.fam.kind != Gauge && m.fam.kind != Untyped {
		panic("obs: Set on non-gauge " + m.fam.name)
	}
	m.mu.Lock()
	m.val = val
	m.mu.Unlock()
}

// Observe records one histogram observation.
func (m *Metric) Observe(x float64) {
	if m.fam.kind != Histogram {
		panic("obs: Observe on non-histogram " + m.fam.name)
	}
	idx := sort.SearchFloat64s(m.fam.buckets, x)
	m.mu.Lock()
	m.counts[idx]++
	m.sum += x
	m.count++
	m.mu.Unlock()
}

// Value reads the current counter/gauge value (histograms: the sum).
func (m *Metric) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fam.kind == Histogram {
		return m.sum
	}
	return m.val
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, series sorted by label values,
// histograms as cumulative _bucket/_sum/_count with an explicit +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if err := f.render(&b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) error {
	if f.collect != nil {
		samples := f.collect()
		if len(samples) == 0 {
			return nil // absent series: omit the family entirely
		}
		header(b, f)
		sort.Slice(samples, func(i, j int) bool {
			return lessLabels(samples[i].Labels, samples[j].Labels)
		})
		for _, s := range samples {
			if len(s.Labels) != len(f.labelNames) {
				return fmt.Errorf("obs: collector for %s returned %d label values, want %d",
					f.name, len(s.Labels), len(f.labelNames))
			}
			sampleLine(b, f.name, f.labelNames, s.Labels, s.Value)
		}
		return nil
	}

	f.mu.Lock()
	series := make([]*Metric, 0, len(f.series))
	for _, m := range f.series {
		series = append(series, m)
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return nil
	}
	sort.Slice(series, func(i, j int) bool { return lessLabels(series[i].labels, series[j].labels) })

	header(b, f)
	for _, m := range series {
		if f.kind != Histogram {
			sampleLine(b, f.name, f.labelNames, m.labels, m.Value())
			continue
		}
		m.mu.Lock()
		sum, count := m.sum, m.count
		counts := append([]uint64(nil), m.counts...)
		m.mu.Unlock()
		names := append(append([]string(nil), f.labelNames...), "le")
		var cum uint64
		for i, le := range f.buckets {
			cum += counts[i]
			vals := append(append([]string(nil), m.labels...), formatValue(le))
			sampleLine(b, f.name+"_bucket", names, vals, float64(cum))
		}
		vals := append(append([]string(nil), m.labels...), "+Inf")
		sampleLine(b, f.name+"_bucket", names, vals, float64(count))
		sampleLine(b, f.name+"_sum", f.labelNames, m.labels, sum)
		sampleLine(b, f.name+"_count", f.labelNames, m.labels, float64(count))
	}
	return nil
}

func header(b *strings.Builder, f *family) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
}

func sampleLine(b *strings.Builder, name string, labelNames, labelValues []string, val float64) {
	b.WriteString(name)
	if len(labelNames) > 0 {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelValues[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(val))
	b.WriteByte('\n')
}

func lessLabels(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func formatValue(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 0 && v*0.5 == v: // +Inf
		return "+Inf"
	case v < 0 && v*0.5 == v: // -Inf
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false // le is reserved for histogram buckets
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
