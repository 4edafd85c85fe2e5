package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The reported tail percentile must leave at least minBeyond samples
// above it, and be the highest level that does.
func TestTailLeavesTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		v, level, beyond := tail(sorted)
		above := 0
		for _, x := range sorted {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Fatalf("n=%d: reported %d beyond p%g, counted %d", n, beyond, level, above)
		}
		if n >= 2*minBeyond && beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves only %d samples beyond", n, level, beyond)
		}
		for _, p := range tailLevels {
			if p <= level {
				break
			}
			if r := rankOf(p, n); n-1-r >= minBeyond {
				t.Fatalf("n=%d: p%g also leaves %d samples beyond, but p%g was reported", n, p, n-1-r, level)
			}
		}
	}
}

// Open-loop latency counts from the due time: when one request stalls on
// the only connection, the requests queued behind it carry the stall in
// their latency even though their own exchange is quick.
func TestOpenLoopCountsFromDue(t *testing.T) {
	const stalled = 5
	stall := 40 * time.Millisecond
	samples := openLoop(1000, 30, 1, func(k int) error {
		if k == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != 30 {
		t.Fatalf("sent %d requests, want 30", len(samples))
	}
	next := samples[stalled+1]
	if got := next.latency(); got < stall-5*time.Millisecond {
		t.Errorf("request behind the stall: latency %v, want at least %v", got, stall-5*time.Millisecond)
	}
	if own := next.done.Sub(next.sent); own > 10*time.Millisecond {
		t.Errorf("request behind the stall took %v on the wire itself; the test needs it quick", own)
	}
	for k := 1; k < len(samples); k++ {
		want := samples[0].due.Add(time.Duration(k) * time.Millisecond)
		if d := samples[k].due.Sub(want); d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("request %d due at %v, want the fixed schedule's %v", k, samples[k].due, want)
		}
	}
}

// Self times are never negative, each op's self times sum to its root's
// duration, and the layer shares sum to at most 100%, also when spans
// overlap, run past their parent, or have negative length.
func TestSelfTimesPartitionOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		ops := 1 + rng.Intn(4)
		for op := 0; op < ops; op++ {
			start := time.Duration(rng.Intn(1000))
			root := len(spans)
			spans = append(spans, span{name: "op", parent: -1, start: start, end: start + time.Duration(1+rng.Intn(500))})
			children := rng.Intn(12)
			for c := 0; c < children; c++ {
				parent := root + rng.Intn(len(spans)-root)
				ps := spans[parent]
				s := ps.start + time.Duration(rng.Intn(700)) - 100
				spans = append(spans, span{
					name:   []string{"phase1.ssc", "phase2.central", "wire.close", "serve.http"}[rng.Intn(4)],
					parent: parent,
					start:  s,
					end:    s + time.Duration(rng.Intn(400)) - 50,
				})
			}
		}
		self := selfTimes(spans)
		sums := map[int]float64{}
		rootOf := make([]int, len(spans))
		for i, s := range spans {
			if self[i] < 0 {
				t.Fatalf("trial %d: span %d has negative self time %v", trial, i, self[i])
			}
			if s.parent < 0 {
				rootOf[i] = i
			} else {
				rootOf[i] = rootOf[s.parent]
			}
			sums[rootOf[i]] += self[i]
		}
		for r, sum := range sums {
			if d := float64(spans[r].end - spans[r].start); math.Abs(sum-d) > 1e-6*d+1e-9 {
				t.Fatalf("trial %d: op %d self times sum to %v, root lasts %v", trial, r, sum, d)
			}
		}
		total := 0.0
		for _, row := range layerTable(spans) {
			if row.share < 0 {
				t.Fatalf("trial %d: %s has negative share %v", trial, row.name, row.share)
			}
			total += row.share
		}
		if total > 100+1e-9 {
			t.Fatalf("trial %d: shares sum to %v%%", trial, total)
		}
	}
}

// Concurrent spans share wall time: two devices busy side by side for the
// whole op each get half of it, and the op's own self time is zero.
func TestSelfTimesShareConcurrentSpans(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "phase1.device", parent: 0, start: 0, end: 100},
		{name: "phase1.device", parent: 0, start: 0, end: 100},
		{name: "phase1.ssc", parent: 1, start: 0, end: 40},
	}
	self := selfTimes(spans)
	want := []float64{0, 30, 50, 20}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("span %d: self %v, want %v", i, self[i], want[i])
		}
	}
}
