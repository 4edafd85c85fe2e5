package main

import (
	"fmt"
	"runtime"
	"time"
)

// opFunc runs op number i, checks its output and returns how many points
// it processed. With a non-nil tracer it records its spans under a root
// span it opens itself, and may return a replay function: the loop calls
// it after timing the op, to time the layers reachable only inside the
// op's calls.
type opFunc func(i int, tr *tracer) (points int, replay func(), err error)

// loopResult is one closed-loop stretch.
type loopResult struct {
	lat    []time.Duration
	points int
	failed int
	alloc  uint64
}

// closedLoop runs op back to back, one op in flight, for at least d and
// at least minOps ops, starting at op index first. A non-nil prepare
// runs before each op, outside its measured time and its allocation
// count.
func closedLoop(d time.Duration, minOps, first int, tr *tracer, prepare func(i int) error, op opFunc) (loopResult, error) {
	var res loopResult
	var before, after, prepStart, prepEnd runtime.MemStats
	var prepAlloc uint64
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := first; time.Since(start) < d || len(res.lat) < minOps; i++ {
		if prepare != nil {
			runtime.ReadMemStats(&prepStart)
			if err := prepare(i); err != nil {
				return res, fmt.Errorf("prepare op %d: %w", i, err)
			}
			runtime.ReadMemStats(&prepEnd)
			prepAlloc += prepEnd.TotalAlloc - prepStart.TotalAlloc
		}
		t0 := time.Now()
		points, replay, err := op(i, tr)
		res.lat = append(res.lat, time.Since(t0))
		res.points += points
		if replay != nil {
			replay()
		}
		if err != nil {
			res.failed++
			if res.failed <= 3 {
				fmt.Printf("op %d failed: %v\n", i, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	res.alloc = after.TotalAlloc - before.TotalAlloc - prepAlloc
	return res, nil
}

// closedRun is a closed-loop workload's measurement: the untraced
// stretch the end-to-end metrics come from and, with -trace 1, the
// traced stretch after it.
type closedRun struct {
	plain, traced loopResult
	tr            *tracer
}

// minOps keeps a short run from reporting a tail over too few ops.
const minOps = 2 * minBeyond

// measureClosed runs the untraced stretch for the whole budget, or, when
// tracing, a third of it untraced and two thirds traced.
func measureClosed(cfg config, first int, prepare func(i int) error, op opFunc) (closedRun, error) {
	if !cfg.trace {
		plain, err := closedLoop(cfg.budget(), minOps, first, nil, prepare, op)
		return closedRun{plain: plain}, err
	}
	plain, err := closedLoop(cfg.budget()/3, minOps, first, nil, prepare, op)
	if err != nil {
		return closedRun{}, err
	}
	tr := newTracer()
	traced, err := closedLoop(cfg.budget()*2/3, minOps, first+len(plain.lat), tr, prepare, op)
	return closedRun{plain: plain, traced: traced, tr: tr}, err
}

// e2e fills the latency, throughput, correctness and allocation metrics
// every closed-loop workload shares.
func (c closedRun) e2e(res *result, setup float64, accuracy float64) {
	s := summarize(c.plain.lat)
	tailV, _, _ := s.tail()
	var opTime time.Duration
	for _, d := range c.plain.lat {
		opTime += d
	}
	fmt.Println(s.describe("ops"))
	res.attempted += len(c.plain.lat)
	res.failed += c.plain.failed
	res.e2e = map[string]float64{
		"op_p50_ms":          s.p50(),
		"op_tail_ms":         tailV,
		"points_per_s":       float64(c.plain.points) / opTime.Seconds(),
		"accuracy_pct":       accuracy,
		"ok_pct":             100 * float64(len(c.plain.lat)-c.plain.failed) / float64(len(c.plain.lat)),
		"alloc_bytes_per_op": float64(c.plain.alloc) / float64(len(c.plain.lat)),
		"setup_s":            setup,
	}
}

// layers counts the traced ops and fills the tracing overhead and the
// layer table; the workload adds its own per-layer metrics.
func (c closedRun) layers(res *result) {
	plain, traced := summarize(c.plain.lat), summarize(c.traced.lat)
	fmt.Println(plain.describe("untraced ops"))
	fmt.Println(traced.describe("traced ops"))
	overhead := traced.p50() - plain.p50()
	fmt.Printf("tracing overhead: traced op_p50_ms - untraced = %.3f ms\n", overhead)
	res.attempted += len(c.traced.lat)
	res.failed += c.traced.failed
	res.layer = map[string]float64{"trace.overhead_ms": overhead}
	res.rows = layerTable(c.tr.snapshot())
}
