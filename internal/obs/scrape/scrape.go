// Package scrape parses the Prometheus text exposition format back into
// typed samples — the read side of internal/obs's /metrics surface. It
// exists so the soak harness (cmd/odrsoak) can assert metric-predicate
// invariants against a live server, cmd/odrtop can render dashboards from
// any /metrics URL, and tests can differential-check the exposition of a
// registry against its instruments' own reads.
//
// Re-encoding is canonical and matches internal/obs's encoder exactly:
// for any document produced by obs.WritePrometheusWith, Parse followed by
// Write is byte-identical (pinned by tests and a fuzz target).
package scrape

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"odr/internal/obs"
)

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line: a (possibly suffixed) sample name, its
// label set in document order, and the value. Histogram families appear
// as their constituent _bucket/_sum/_count samples.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	// Timestamp (milliseconds) when the line carried one.
	Timestamp    int64
	HasTimestamp bool
}

// Label returns the value of the named label ("" when absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family groups the samples of one metric family, in document order.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped
	hasType bool
	hasHelp bool
	Samples []Sample
}

// Scrape is one parsed exposition document.
type Scrape struct {
	Families []Family // document order
	byName   map[string]int
	types    map[string]string // family name -> final declared TYPE
}

// familyFor strips a histogram/summary sample suffix to find the family a
// sample belongs to. Attribution consults the document's final TYPE
// declarations (collected in a first pass), not the families declared so
// far — so it cannot depend on whether a TYPE line precedes or follows its
// samples, and canonical re-encoding is a true fixed point.
func (s *Scrape) familyFor(sample string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if t := s.types[base]; t == "histogram" || t == "summary" {
			return base
		}
	}
	return sample
}

// family returns (creating if needed) the family entry for name.
func (s *Scrape) family(name string) *Family {
	if i, ok := s.byName[name]; ok {
		return &s.Families[i]
	}
	s.Families = append(s.Families, Family{Name: name, Type: "untyped"})
	s.byName[name] = len(s.Families) - 1
	return &s.Families[len(s.Families)-1]
}

// Parse reads one exposition document.
func Parse(r io.Reader) (*Scrape, error) {
	s := &Scrape{byName: make(map[string]int), types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	// Pass 1: record the final TYPE of every family so sample attribution
	// (familyFor) is independent of declaration order.
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, "#")
		if !ok {
			continue
		}
		rest = strings.TrimPrefix(rest, " ")
		if kw, rest, _ := strings.Cut(rest, " "); kw == "TYPE" {
			if name, typ, _ := strings.Cut(rest, " "); name != "" {
				s.types[name] = typ
			}
		}
	}
	// Pass 2: build families and samples in document order.
	for lineNo, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := s.parseComment(line); err != nil {
				return nil, fmt.Errorf("scrape: line %d: %w", lineNo+1, err)
			}
			continue
		}
		if err := s.parseSample(line); err != nil {
			return nil, fmt.Errorf("scrape: line %d: %w", lineNo+1, err)
		}
	}
	return s, nil
}

// ParseBytes parses an in-memory document.
func ParseBytes(b []byte) (*Scrape, error) { return Parse(strings.NewReader(string(b))) }

// Fetch GETs one exposition document from url (5 s timeout) and parses it;
// a non-200 response is an error.
func Fetch(url string) (*Scrape, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return Parse(resp.Body)
}

// parseComment handles # HELP and # TYPE; other comments are ignored.
func (s *Scrape) parseComment(line string) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimPrefix(rest, " ")
	keyword, rest, _ := strings.Cut(rest, " ")
	switch keyword {
	case "HELP":
		name, help, _ := strings.Cut(rest, " ")
		if name == "" {
			return fmt.Errorf("HELP without a metric name")
		}
		f := s.family(name)
		f.Help, f.hasHelp = help, true
	case "TYPE":
		name, typ, _ := strings.Cut(rest, " ")
		if name == "" {
			return fmt.Errorf("TYPE without a metric name")
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %q", typ, name)
		}
		f := s.family(name)
		f.Type, f.hasType = typ, true
	}
	return nil
}

// validSampleName reports whether name is a legal metric name.
func validSampleName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// parseSample handles one sample line: name[{labels}] value [timestamp].
func (s *Scrape) parseSample(line string) error {
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !validSampleName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	var labels []Label
	if strings.HasPrefix(rest, "{") {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return fmt.Errorf("sample %q: %w", name, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want 'value [timestamp]', got %q", name, strings.TrimSpace(rest))
	}
	value, err := parseValue(fields[0])
	if err != nil {
		return fmt.Errorf("sample %q: bad value %q", name, fields[0])
	}
	sample := Sample{Name: name, Labels: labels, Value: value}
	if len(fields) == 2 {
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", name, fields[1])
		}
		sample.Timestamp, sample.HasTimestamp = ts, true
	}
	f := s.family(s.familyFor(name))
	f.Samples = append(f.Samples, sample)
	return nil
}

// parseValue accepts Go float syntax plus the Prometheus Inf spellings.
func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(tok, 64)
}

// parseLabels consumes `name="value",...}` and returns the remainder of
// the line after the closing brace.
func parseLabels(rest string) ([]Label, string, error) {
	var labels []Label
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(rest[:eq])
		if name == "" || !validSampleName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label %q value not quoted", name)
		}
		value, remainder, err := parseQuoted(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		labels = append(labels, Label{Name: name, Value: value})
		rest = strings.TrimLeft(remainder, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(rest string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				// Unknown escape: keep both bytes, like Prometheus does.
				b.WriteByte('\\')
				b.WriteByte(rest[i])
			}
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// Write re-encodes the document canonically: families and samples in
// stored order, values through the same formatter as internal/obs's
// encoder. Parse(obs.WritePrometheusWith output) -> Write is byte-identical.
func (s *Scrape) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range s.Families {
		f := &s.Families[i]
		if f.hasHelp {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		}
		if f.hasType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, sm := range f.Samples {
			bw.WriteString(sm.Name)
			if len(sm.Labels) > 0 {
				bw.WriteByte('{')
				for j, l := range sm.Labels {
					if j > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					bw.WriteString(obs.EscapeLabelValue(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(obs.FormatValue(sm.Value))
			if sm.HasTimestamp {
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(sm.Timestamp, 10))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Family returns the named family, or nil.
func (s *Scrape) Family(name string) *Family {
	if i, ok := s.byName[name]; ok {
		return &s.Families[i]
	}
	return nil
}

// matches reports whether the sample carries every label in want.
func matches(sm *Sample, want []Label) bool {
	for _, l := range want {
		if sm.Label(l.Name) != l.Value {
			return false
		}
	}
	return true
}

// Value returns the value of the unlabeled (or first matching) sample
// named name. For labeled lookups pass the wanted labels.
func (s *Scrape) Value(name string, want ...Label) (float64, bool) {
	f := s.Family(s.familyFor(name))
	if f == nil {
		return 0, false
	}
	for i := range f.Samples {
		if f.Samples[i].Name == name && matches(&f.Samples[i], want) {
			return f.Samples[i].Value, true
		}
	}
	return 0, false
}

// Number is Value with a 0 default — for predicate arithmetic where a
// missing series should read as zero.
func (s *Scrape) Number(name string, want ...Label) float64 {
	v, _ := s.Value(name, want...)
	return v
}

// Series returns every sample named exactly name (across label sets).
func (s *Scrape) Series(name string) []Sample {
	f := s.Family(s.familyFor(name))
	if f == nil {
		return nil
	}
	var out []Sample
	for _, sm := range f.Samples {
		if sm.Name == name {
			out = append(out, sm)
		}
	}
	return out
}

// SeriesCount returns how many label sets the named sample has — the
// cardinality probe the soak invariants use.
func (s *Scrape) SeriesCount(name string) int { return len(s.Series(name)) }

// LabelValues returns the distinct values of the named label across the
// samples named name, sorted.
func (s *Scrape) LabelValues(name, label string) []string {
	seen := make(map[string]bool)
	for _, sm := range s.Series(name) {
		if v := sm.Label(label); v != "" && !seen[v] {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Quantile estimates the q-quantile of the histogram family name from its
// cumulative _bucket samples (optionally restricted to the label set
// want): the geometric midpoint of the log2 bucket holding the q-th
// observation, within a factor of sqrt(2) of the true value.
func (s *Scrape) Quantile(name string, q float64, want ...Label) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, sm := range s.Series(name + "_bucket") {
		if !matches(&sm, want) {
			continue
		}
		leStr := sm.Label("le")
		le, err := parseValue(leStr)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, cum: sm.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, true
	}
	rank := math.Ceil(q * total)
	if rank < 1 {
		rank = 1
	}
	prev := 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) || b.le <= 0 {
				return math.Max(prev, 0), true
			}
			// Bucket spans (prev, le]; return its geometric midpoint
			// (log2 buckets, sqrt2 midpoint).
			lo := math.Max(prev, 1)
			return math.Min(lo*math.Sqrt2, b.le), true
		}
		prev = b.le
	}
	return prev, true
}
