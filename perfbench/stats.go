package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so the tail is an observed value, not one extreme sample.
const minBeyond = 10

// tailLevels are the candidate tail percentiles, highest first. With
// decade steps the reported level leaves between minBeyond and ten times
// that many samples beyond it, so the tail rarely hinges on a handful of
// stalled ops.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// rankOf is the 0-based nearest rank of percentile p in n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// quantile is the nearest-rank percentile p of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))]
}

// tail returns the highest percentile of tailLevels that leaves at least
// minBeyond samples above its rank, with its value and that count. With
// fewer than 2·minBeyond samples no level qualifies and the median is
// returned with however many samples lie beyond it.
func tail(sorted []float64) (value, level float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range tailLevels {
		r := rankOf(p, n)
		if n-1-r >= minBeyond {
			return sorted[r], p, n - 1 - r
		}
	}
	r := rankOf(50, n)
	return sorted[r], 50, n - 1 - r
}

// latencySummary is a sorted sample of op latencies in milliseconds.
type latencySummary struct {
	sorted []float64
}

func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return latencySummary{sorted: ms}
}

func (s latencySummary) p50() float64 { return quantile(s.sorted, 50) }

func (s latencySummary) tail() (float64, float64, int) { return tail(s.sorted) }

// describe is the human-readable line for one latency sample.
func (s latencySummary) describe(label string) string {
	v, p, beyond := s.tail()
	return fmt.Sprintf("%s: n=%d p50=%.3fms p%g=%.3fms (%d samples beyond)", label, len(s.sorted), s.p50(), p, v, beyond)
}

// medianOf is the median of an unsorted sample.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return medianOf(xs)
}

// selfTimes attributes every instant of each op to the spans doing the
// work at that instant: the innermost spans active then (active spans
// with no active child) share it equally. Each op's root span therefore
// splits into self times that are never negative and sum to the root's
// duration, and concurrent spans (devices running Phase 1 side by side)
// share wall time instead of counting it twice. Spans are first clipped
// to their parent's interval. The result is indexed like spans, in
// nanoseconds.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	clipped := make([]span, len(spans))
	root := make([]int, len(spans))
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			s.end = s.start
		}
		if s.parent >= 0 {
			p := clipped[s.parent]
			if s.start < p.start {
				s.start = p.start
			}
			if s.end > p.end {
				s.end = p.end
			}
			if s.start > s.end {
				s.start = s.end
			}
			root[i] = root[s.parent]
			children[s.parent] = append(children[s.parent], i)
		} else {
			root[i] = i
		}
		clipped[i] = s
	}
	groups := make([][]int, len(spans))
	for i := range spans {
		groups[root[i]] = append(groups[root[i]], i)
	}
	active := make([]bool, len(spans))
	for _, members := range groups {
		if len(members) == 0 {
			continue
		}
		var edges []time.Duration
		for _, i := range members {
			edges = append(edges, clipped[i].start, clipped[i].end)
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a] < edges[b] })
		for k := 0; k+1 < len(edges); k++ {
			a, b := edges[k], edges[k+1]
			if b <= a {
				continue
			}
			for _, i := range members {
				active[i] = clipped[i].start <= a && clipped[i].end >= b
			}
			var inner []int
			for _, i := range members {
				if !active[i] {
					continue
				}
				leaf := true
				for _, c := range children[i] {
					if active[c] {
						leaf = false
						break
					}
				}
				if leaf {
					inner = append(inner, i)
				}
			}
			share := float64(b-a) / float64(len(inner))
			for _, i := range inner {
				self[i] += share
			}
		}
	}
	return self
}

// layerRow is one line of the layer table: a span name's self time per
// op and its share of all op time.
type layerRow struct {
	name    string
	msPerOp float64
	share   float64
}

// layerTable aggregates self times by span name over every op (root
// span) in spans. Shares are of the summed root durations, so they sum
// to 100% up to rounding.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]float64{}
	var total float64
	ops := 0
	for i, s := range spans {
		name := s.name
		if s.parent < 0 {
			total += float64(s.end - s.start)
			ops++
			name = "harness"
		}
		byName[name] += self[i]
	}
	if ops == 0 || total <= 0 {
		return nil
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]layerRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, layerRow{name: n, msPerOp: byName[n] / 1e6 / float64(ops), share: 100 * byName[n] / total})
	}
	return rows
}

// layerOf is the layer a span name belongs to: its first dotted word.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// printLayers writes the layer table: each span name's self time per op
// and share, then each layer's total share.
func printLayers(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "layers %s (self time per op; share of op time)\n", workload)
	totals := map[string]float64{}
	var order []string
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %10.3f ms %6.1f%%\n", r.name, r.msPerOp, r.share)
		l := layerOf(r.name)
		if _, ok := totals[l]; !ok {
			order = append(order, l)
		}
		totals[l] += r.share
	}
	for _, l := range order {
		fmt.Fprintf(w, "  layer %-18s %6.1f%%\n", l, totals[l])
	}
}
