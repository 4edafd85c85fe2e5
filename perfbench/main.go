// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload in one process and prints, as its
// last line, a JSON object with the workload's metrics:
//
//	go run . -workload round-devices -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// program tracing off. With -trace 1 it measures an untraced stretch and
// then a traced one, and reports the per-layer metrics, the layer table
// (each layer's self time and share of op time) and the tracing
// overhead: traced op_p50_ms minus untraced. Every op's output is
// checked; a failed check counts in "failed" and makes the exit code 1.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scratch is a directory inside the working directory for the
	// workloads' on-disk state (model stores).
	scratch string
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what a workload measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	rows              []layerRow
}

// workload runs one traffic mix; it prints human-readable lines to
// stdout and returns the metrics.
type workload func(cfg config) (result, error)

var workloads = map[string]workload{
	"round-devices": runRoundDevices,
	"round-pooled":  runRoundPooled,
	"serve-open":    runServeOpen,
	"fleet-churn":   runFleetChurn,
}

// units of every reported metric; the end-to-end and per-layer names
// are exactly the ones BENCHMARK.json declares.
var e2eUnits = map[string]string{
	"op_p50_ms":          "ms",
	"op_tail_ms":         "ms",
	"points_per_s":       "1/s",
	"accuracy_pct":       "%",
	"ok_pct":             "%",
	"alloc_bytes_per_op": "bytes",
	"setup_s":            "s",
}

var layerUnits = map[string]string{
	"trace.overhead_ms":            "ms",
	"phase1.device_ms":             "ms",
	"phase1.device_max_ms":         "ms",
	"phase1.ssc_ms":                "ms",
	"phase1.spectral_ms":           "ms",
	"phase1.basis_ms":              "ms",
	"phase1.r_exact_pct":           "%",
	"phase2.central_ms":            "ms",
	"phase2.pooled":                "count",
	"export.bases_ms":              "ms",
	"phase23.aggregate_ms":         "ms",
	"wire.uplink_bytes":            "bytes",
	"wire.uplink_bytes_per_device": "bytes",
	"wire.downlink_bytes":          "bytes",
	"wire.payload_bits":            "bits",
	"wire.retries":                 "count",
	"wire.failures":                "count",
	"wire.exchange_ms":             "ms",
	"wire.close_ms":                "ms",
	"fleet.absorb_ms":              "ms",
	"fleet.splice_ms":              "ms",
	"fleet.rollback_ms":            "ms",
	"fleet.absorbed":               "count",
	"fleet.spliced":                "count",
	"fleet.score_ms":               "ms",
	"fleet.drift_pct":              "%",
	"dsvd.refine_ms":               "ms",
	"dsvd.iters":                   "count",
	"store.put_ms":                 "ms",
	"store.get_ms":                 "ms",
	"store.manifest_entries":       "count",
	"serve.light_p50_ms":           "ms",
	"serve.light_tail_ms":          "ms",
	"serve.max_rate_per_s":         "1/s",
	"serve.decode_us":              "us",
	"serve.batcher_ms":             "ms",
	"serve.http_ms":                "ms",
	"serve.score_us_per_point":     "us",
	"serve.batch_fill":             "ratio",
	"serve.shed":                   "count",
	"serve.queue_depth_max":        "count",
	"gen.late_ms":                  "ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: round-devices, round-pooled, serve-open or fleet-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics with tracing on")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errFailedChecks marks a run whose ops failed their checks: the result
// line is printed, and the exit code is 1.
var errFailedChecks = errors.New("some ops failed their checks")

func run(name string, seed int64, seconds float64, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("non-positive -seconds %v", seconds)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n", name, seed, seconds, traced, procs)
	scratch, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	res, err := w(config{seed: seed, seconds: seconds, trace: traced, scratch: scratch})
	if err != nil {
		return err
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	units, values := e2eUnits, res.e2e
	if traced {
		units, values = layerUnits, res.layer
		printLayers(os.Stdout, name, res.rows)
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Metrics[n] = metric{Value: values[n], Unit: units[n]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.Attempted < 1 {
		return fmt.Errorf("no op completed")
	}
	if !out.Correct {
		return errFailedChecks
	}
	return nil
}
