package tsdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is one exposition sample: the sample name (family name plus
// any _bucket/_sum/_count suffix), the raw label block including braces
// ("" when unlabeled), and the value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Key is the exposition-form identity: name immediately followed by the
// label block.
func (s Sample) Key() string { return s.Name + s.Labels }

// Family is one family's metadata as declared by its HELP/TYPE headers.
type Family struct {
	Name string
	Help string
	Type string
}

// Scrape is one exposition page: family metadata in page order and
// every sample in page order, each family's samples contiguous after
// it. The server builds its own page in this form; Text renders it and
// ParseExposition reads a page back from bytes that come from outside
// the process.
type Scrape struct {
	Families []Family
	Samples  []Sample
}

// types maps each declared family to its TYPE.
func (sc Scrape) types() map[string]string {
	types := make(map[string]string, len(sc.Families))
	for _, f := range sc.Families {
		types[f.Name] = f.Type
	}
	return types
}

// familyOf is the one family rule: a histogram family's samples carry
// _bucket/_sum/_count suffixes on top of the family name; every other
// sample is named after its family.
func familyOf(sampleName string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sampleName, suffix); ok && types[base] == "histogram" {
			return base
		}
	}
	return sampleName
}

// SampleFamilies returns the family of every sample, in sample order.
func (sc Scrape) SampleFamilies() []string {
	types := sc.types()
	out := make([]string, len(sc.Samples))
	for i, s := range sc.Samples {
		out[i] = familyOf(s.Name, types)
	}
	return out
}

// Text renders the page as a Prometheus text exposition (format 0.0.4),
// the inverse of ParseExposition: each family's HELP and TYPE headers,
// then the samples of that family that follow it in Samples; samples
// with no family are written last. Counters and histogram
// _bucket/_count samples print as integers; gauges, _sum and untyped
// samples print with %g.
func (sc Scrape) Text() []byte {
	types := sc.types()
	b := make([]byte, 0, 64*(len(sc.Families)+len(sc.Samples)))
	i := 0
	samples := func(family string) {
		for ; i < len(sc.Samples) && (family == "" || familyOf(sc.Samples[i].Name, types) == family); i++ {
			s := sc.Samples[i]
			b = append(append(append(b, s.Name...), s.Labels...), ' ')
			if typ := types[family]; (typ == "counter" || typ == "histogram" && s.Name != family+"_sum") &&
				s.Value == math.Trunc(s.Value) && math.Abs(s.Value) < 1<<63 {
				b = strconv.AppendInt(b, int64(s.Value), 10)
			} else {
				b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	for _, f := range sc.Families {
		b = append(b, "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+f.Type+"\n"...)
		samples(f.Name)
	}
	samples("")
	return b
}

// ParseExposition parses a Prometheus text page (format 0.0.4) into
// samples and family metadata. It accepts exactly the subset Text
// emits — HELP/TYPE comments and `name[{labels}] value` samples — and
// rejects anything it cannot account for, so a corrupt peer scrape is
// an error, not silently partial data.
func ParseExposition(text string) (Scrape, error) {
	var sc Scrape
	seen := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, found := strings.Cut(rest, " ")
			if !found || name == "" {
				return Scrape{}, fmt.Errorf("tsdb: line %d: malformed HELP", lineNo)
			}
			if !seen[name] {
				seen[name] = true
				sc.Families = append(sc.Families, Family{Name: name, Help: help})
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				return Scrape{}, fmt.Errorf("tsdb: line %d: malformed TYPE", lineNo)
			}
			for i := range sc.Families {
				if sc.Families[i].Name == f[0] {
					sc.Families[i].Type = f[1]
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return Scrape{}, fmt.Errorf("tsdb: line %d: no value: %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return Scrape{}, fmt.Errorf("tsdb: line %d: bad value %q", lineNo, line[sp+1:])
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return Scrape{}, fmt.Errorf("tsdb: line %d: unterminated label block: %q", lineNo, line)
			}
			labels = name[i:]
			name = name[:i]
		}
		if name == "" {
			return Scrape{}, fmt.Errorf("tsdb: line %d: empty sample name", lineNo)
		}
		sc.Samples = append(sc.Samples, Sample{Name: name, Labels: labels, Value: v})
	}
	return sc, nil
}
