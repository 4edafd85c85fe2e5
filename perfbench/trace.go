package main

import (
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets
// from the tracer's origin; parent indexes the tracer's span list, -1
// for an op's root span.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps every span of a traced run in memory; the layer table is
// computed from it after the run. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the current offset from the tracer's origin.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// at converts an absolute time into a tracer offset.
func (t *tracer) at(ts time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return ts.Sub(t.t0)
}

// open starts a span now under parent and returns its id.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	return t.record(name, parent, now, now)
}

// close ends span id now.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span with explicit bounds and returns its id. Layers
// reachable only inside another call are timed by calling their public
// function again on the same inputs after the op; record places that
// replayed interval inside the enclosing span.
func (t *tracer) record(name string, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// bounds returns span id's interval.
func (t *tracer) bounds(id int) (time.Duration, time.Duration) {
	if t == nil || id < 0 {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].start, t.spans[id].end
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// replayer lays replayed child intervals back to back inside a parent
// span, spread over lanes parallel tracks (the parallelism the real call
// had). An interval that would run past the parent's end is clipped by
// the self-time sweep.
type replayer struct {
	t      *tracer
	parent int
	free   []time.Duration // next free offset of each lane
}

func newReplayer(t *tracer, parent int, from time.Duration, lanes int) *replayer {
	if lanes < 1 {
		lanes = 1
	}
	free := make([]time.Duration, lanes)
	for i := range free {
		free[i] = from
	}
	return &replayer{t: t, parent: parent, free: free}
}

// add places a replayed interval of length d on the earliest free lane
// and returns its span id.
func (r *replayer) add(name string, d time.Duration) int {
	lane := 0
	for i, f := range r.free {
		if f < r.free[lane] {
			lane = i
		}
	}
	start := r.free[lane]
	r.free[lane] = start + d
	return r.t.record(name, r.parent, start, start+d)
}

// end is the latest lane end: where a sequential successor starts.
func (r *replayer) end() time.Duration {
	last := r.free[0]
	for _, f := range r.free {
		if f > last {
			last = f
		}
	}
	return last
}
