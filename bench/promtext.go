package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition (format 0.0.4):
// metric name, label set, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is a parsed exposition. The benchmark reads the program's
// counters only through this public text form (Cluster.WriteMetrics), the
// same bytes an operator's scraper sees.
type promSnapshot []promSample

// parseProm parses an exposition, skipping comments and blank lines.
func parseProm(r io.Reader) (promSnapshot, error) {
	var snap promSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, err := parsePromLine(text)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		snap = append(snap, s)
	}
	return snap, sc.Err()
}

func parsePromLine(text string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := text
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", text)
	} else {
		s.name, rest = rest[:i], rest[i:]
	}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if rest == "" {
				return s, fmt.Errorf("unterminated label set in %q", text)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("malformed label in %q", text)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						val.WriteByte('\n')
					default: // \\ and \"
						val.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", text)
			}
			s.labels[name] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %q: %w", text, err)
	}
	s.value = v
	return s, nil
}

// sum adds up every series called name whose labels include all of match
// (alternating label name, label value). Summing over nodes is what turns
// three backups' or three witnesses' counters into one partition total.
func (p promSnapshot) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promDelta is the change of the program's counters over an interval.
type promDelta struct{ before, after promSnapshot }

// counter is the increase of a counter (summed over matching series).
func (d promDelta) counter(name string, match ...string) float64 {
	return d.after.sum(name, match...) - d.before.sum(name, match...)
}

// histMean is the mean of the observations a histogram family took during
// the interval: the increase of _sum over the increase of _count. The
// exposition's buckets start at 50 µs and 1 entry, too coarse to place a
// median of microsecond-scale stages, while _sum/_count are exact.
func (d promDelta) histMean(name string, match ...string) float64 {
	n := d.counter(name+"_count", match...)
	if n <= 0 {
		return 0
	}
	return d.counter(name+"_sum", match...) / n
}

// scrape renders and parses the stack's current exposition.
func scrape(st *stack) (promSnapshot, error) {
	var buf bytes.Buffer
	if err := st.writeMetrics(&buf); err != nil {
		return nil, fmt.Errorf("WriteMetrics: %w", err)
	}
	return parseProm(&buf)
}
