package e2e

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The name grammars of the exposition format.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition strictly parses the Prometheus text exposition format
// (version 0.0.4) and returns the number of samples read. It checks line
// syntax (metric and label names, quoting and escapes, float values), that
// TYPE declarations precede their samples and each family's samples stay
// contiguous, and histogram invariants: buckets cumulative and
// non-decreasing, an explicit +Inf bucket present, and _count equal to the
// +Inf bucket. Scrape holds every live /metrics body to it, and the
// packages' tests their registries' output. It shares no code with the
// writer in internal/obs, so the two cannot agree on a mistake.
func ValidateExposition(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	types := map[string]string{}   // family -> kind
	closed := map[string]bool{}    // family had samples and a new family started
	hists := map[string]*histAcc{} // histogram family -> accumulated checks
	current := ""
	samples, lineNo := 0, 0

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fail := func(format string, args ...any) (int, error) {
			return 0, fmt.Errorf("exposition line %d: %s (%q)", lineNo, fmt.Sprintf(format, args...), line)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 || !metricName.MatchString(fields[2]) {
					return fail("malformed %s comment", fields[1])
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return fail("TYPE needs a kind")
					}
					kind := fields[3]
					switch kind {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fail("unknown metric kind %q", kind)
					}
					if _, dup := types[fields[2]]; dup {
						return fail("duplicate TYPE for %s", fields[2])
					}
					if closed[fields[2]] {
						return fail("TYPE for %s after its samples", fields[2])
					}
					types[fields[2]] = kind
				}
			}
			continue
		}

		name, labels, val, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		fam := familyOf(name, types)
		if fam != current {
			if closed[fam] {
				return fail("samples of %s are not contiguous", fam)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		if types[fam] == "histogram" {
			h := hists[fam]
			if h == nil {
				h = &histAcc{buckets: map[string][]bucket{}, counts: map[string]float64{}, sums: map[string]bool{}}
				hists[fam] = h
			}
			if err := h.add(fam, name, labels, val); err != nil {
				return fail("%v", err)
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	for fam, h := range hists {
		if err := h.check(fam); err != nil {
			return 0, err
		}
	}
	return samples, nil
}

// familyOf maps a sample name to its family: histogram samples carry
// _bucket/_sum/_count suffixes on the declared family name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

type bucket struct {
	le  float64
	cum float64
}

type histAcc struct {
	buckets map[string][]bucket // series key (labels minus le) -> buckets
	counts  map[string]float64
	sums    map[string]bool
}

type labelPair struct{ name, value string }

func seriesKey(labels []labelPair, drop string) string {
	kept := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.name != drop {
			kept = append(kept, l.name+"\xfe"+l.value)
		}
	}
	sort.Strings(kept)
	return strings.Join(kept, "\xff")
}

func (h *histAcc) add(fam, name string, labels []labelPair, val float64) error {
	key := seriesKey(labels, "le")
	switch name {
	case fam + "_bucket":
		le := ""
		for _, l := range labels {
			if l.name == "le" {
				le = l.value
			}
		}
		if le == "" {
			return fmt.Errorf("%s without le label", name)
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("%s has unparseable le=%q", name, le)
		}
		h.buckets[key] = append(h.buckets[key], bucket{f, val})
	case fam + "_sum":
		h.sums[key] = true
	case fam + "_count":
		h.counts[key] = val
	default:
		return fmt.Errorf("sample %s inside histogram family %s", name, fam)
	}
	return nil
}

func (h *histAcc) check(fam string) error {
	for key, bs := range h.buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("exposition: histogram %s is missing the +Inf bucket", fam)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].cum < bs[i-1].cum {
				return fmt.Errorf("exposition: histogram %s buckets not cumulative (le=%g count %g < le=%g count %g)",
					fam, bs[i].le, bs[i].cum, bs[i-1].le, bs[i-1].cum)
			}
		}
		count, ok := h.counts[key]
		if !ok {
			return fmt.Errorf("exposition: histogram %s is missing _count", fam)
		}
		if count != last.cum {
			return fmt.Errorf("exposition: histogram %s _count %g != +Inf bucket %g", fam, count, last.cum)
		}
		if !h.sums[key] {
			return fmt.Errorf("exposition: histogram %s is missing _sum", fam)
		}
	}
	return nil
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (string, []labelPair, float64, error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name := line[:i]
	if !metricName.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	var labels []labelPair
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, err
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, fmt.Errorf("missing value separator")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("want 'value [timestamp]' after name, got %q", rest)
	}
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return name, labels, val, nil
}

// parseLabels parses `name="value",...}` returning the pairs and the text
// after the closing brace.
func parseLabels(s string) ([]labelPair, string, error) {
	var out []labelPair
	for {
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		i := 0
		for i < len(s) && s[i] != '=' {
			i++
		}
		name := s[:i]
		if !labelName.MatchString(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		s = s[i:]
		if !strings.HasPrefix(s, `="`) {
			return nil, "", fmt.Errorf("label %s not followed by =\"", name)
		}
		s = s[2:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value for %s", name)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %s", s[1], name)
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		out = append(out, labelPair{name, val.String()})
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
		default:
			return nil, "", fmt.Errorf("expected ',' or '}' after label %s", name)
		}
	}
}
