package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/dsvd"
	"fedsc/internal/fleet"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/obs"
	"fedsc/internal/store"
	"fedsc/internal/synth"
)

// The fleet-churn world: founding devices hold 2 of churnFounders
// subspaces; an absorb wave brings familiar subspaces only; a splice
// wave brings the one subspace no founder held.
const (
	churnFounders = 4
	churnAmbient  = 96
	churnDim      = 4
	churnPoints   = 20
)

// churnWorld is one generated fleet scenario.
type churnWorld struct {
	seed                     int64
	founding, absorb, splice []*mat.Dense
	truth                    [][]int // per device, founding then absorb then splice
	latePoints               int
	lateHeld                 []int        // subspaces each late device holds, absorb wave then splice wave
	unseen                   []*mat.Dense // the splice wave's columns of the unseen subspace, per device

	// initial is Initial's result; lateSeeds are the Phase 1 seeds the
	// controller draws for the absorb wave, then the splice wave (see
	// deriveLateSeeds); localClusters is how many local clusters Phase 1
	// finds on the absorb wave's devices under those seeds. It is usually
	// one per held subspace (8), but Phase 1's eigengap estimate may split
	// a subspace in two, and the absorb wave must absorb every cluster.
	initial       core.Result
	lateSeeds     []int64
	localClusters int
}

func genChurnWorld(rng *rand.Rand) churnWorld {
	subs := synth.RandomSubspaces(churnAmbient, churnDim, churnFounders+1, rng)
	w := churnWorld{seed: rng.Int63()}
	founders := -1 // below zero while the founding wave is drawn
	wave := func(held ...[]int) []*mat.Dense {
		var out []*mat.Dense
		for _, h := range held {
			if founders >= 0 {
				w.lateHeld = append(w.lateHeld, len(h))
			}
			counts := make([]int, churnFounders+1)
			for _, l := range h {
				counts[l] = churnPoints
			}
			ds := subs.SampleCounts(counts, rng)
			out = append(out, ds.X)
			w.truth = append(w.truth, ds.Labels)
		}
		return out
	}
	w.founding = wave([]int{0, 1}, []int{2, 3}, []int{0, 2}, []int{1, 3}, []int{0, 3}, []int{1, 2}, []int{0, 1}, []int{2, 3})
	founders = len(w.truth)
	w.absorb = wave([]int{0, 1}, []int{2, 3}, []int{0, 2}, []int{1, 3})
	unseen := churnFounders
	w.splice = wave([]int{unseen}, []int{1, unseen}, []int{2, unseen}, []int{0, unseen})
	for _, x := range append(append([]*mat.Dense(nil), w.absorb...), w.splice...) {
		w.latePoints += x.Cols()
	}
	base := len(w.founding) + len(w.absorb)
	for i, x := range w.splice {
		var cols []int
		for j, l := range w.truth[base+i] {
			if l == unseen {
				cols = append(cols, j)
			}
		}
		w.unseen = append(w.unseen, x.SelectCols(cols))
	}
	return w
}

// fleetChurn runs one fixed churn cycle per op on a freshly founded
// controller: an absorb Join, a splice Join, a fleet Assign over every
// point, and a Rollback to the founding digest.
//
// Each op founds its own controller (fleet.New + Initial, timed as
// set-up) because Rollback returns to the version published before the
// current one: on a long-lived controller the second cycle's rollback
// lands on the first cycle's splice, not on the founding model, and the
// cycle would stop repeating.
type fleetChurn struct {
	worlds []churnWorld
	st     *store.Store
	probe  *store.Store
	reg    *obs.Registry
	replay *obs.Registry // the replays' metrics, kept out of reg
	local  core.LocalOptions
	procs  int

	ctl      *fleet.Controller
	founding fleet.Version
	setups   []float64
	acc      []float64

	absorbMs, spliceMs, rollbackMs, scoreMs []time.Duration
	refine, put, get                        []time.Duration
	p1                                      phase1Obs
	absorbed, spliced                       int
	// The program's own distributed SVD counters on reg, and their
	// increase over the traced ops' Join calls.
	itersC, solvesC *obs.Counter
	iters, solves   int64
}

func runFleetChurn(cfg config) (result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &fleetChurn{
		reg:    obs.NewRegistry(),
		replay: obs.NewRegistry(),
		local:  core.LocalOptions{UseEigengap: true, SamplesPerCluster: 3},
		procs:  runtime.GOMAXPROCS(0),
	}
	w.itersC = w.reg.Counter("fedsc_dsvd_iterations_total", "Projection-splitting iterations across all solves.")
	w.solvesC = w.reg.Counter("fedsc_dsvd_rounds_total", "Distributed SVD solves started.")
	for i := 0; i < cycle; i++ {
		w.worlds = append(w.worlds, genChurnWorld(rng))
	}
	var err error
	if w.st, err = store.Open(filepath.Join(cfg.scratch, "fleet")); err != nil {
		return result{}, err
	}
	if w.probe, err = store.Open(filepath.Join(cfg.scratch, "probe")); err != nil {
		return result{}, err
	}
	for i := 0; i < cycle; i++ {
		if err := w.prepare(i); err != nil {
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
		if err := w.deriveLateSeeds(i); err != nil {
			return result{}, err
		}
		if _, _, err := w.op(i, nil); err != nil {
			return result{}, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	w.acc = w.acc[:0]
	run, err := measureClosed(cfg, cycle, w.prepare, w.op)
	if err != nil {
		return result{}, err
	}
	drift := driftPct(run.plain.lat)
	fmt.Printf("op time drift, last tenth vs first tenth of the run: %+.2f%%\n", drift)
	fmt.Printf("store manifest entries: %d\n", len(w.st.Manifest().Models))
	var res result
	run.e2e(&res, medianOf(w.setups), medianOf(w.acc))
	if cfg.trace {
		run.layers(&res)
		ops := float64(len(run.traced.lat))
		w.p1.fill(res.layer)
		res.layer["fleet.drift_pct"] = math.Abs(drift)
		res.layer["fleet.absorb_ms"] = medianDur(w.absorbMs) / 1e6
		res.layer["fleet.splice_ms"] = medianDur(w.spliceMs) / 1e6
		res.layer["fleet.rollback_ms"] = medianDur(w.rollbackMs) / 1e6
		res.layer["fleet.score_ms"] = medianDur(w.scoreMs) / 1e6
		res.layer["fleet.absorbed"] = float64(w.absorbed) / ops
		res.layer["fleet.spliced"] = float64(w.spliced) / ops
		res.layer["dsvd.refine_ms"] = medianDur(w.refine) / 1e6
		if w.solves > 0 {
			res.layer["dsvd.iters"] = float64(w.iters) / float64(w.solves)
		}
		res.layer["store.put_ms"] = medianDur(w.put) / 1e6
		res.layer["store.get_ms"] = medianDur(w.get) / 1e6
		res.layer["store.manifest_entries"] = float64(len(w.st.Manifest().Models))
	}
	return res, nil
}

// driftPct compares the median op time of a run's last tenth with its
// first tenth, in percent.
func driftPct(lat []time.Duration) float64 {
	n := len(lat) / 10
	if n < 1 {
		return 0
	}
	first, last := medianDur(lat[:n]), medianDur(lat[len(lat)-n:])
	return 100 * (last - first) / first
}

// tag is world i's manifest alias; its versions are tag@v1, tag@v2.
func tag(i int) string { return fmt.Sprintf("fleet-%d", i%cycle) }

// prepare founds op i's controller: fleet.New and Initial over the
// world's founding devices. Its duration is a set-up sample.
func (w *fleetChurn) prepare(i int) error {
	wd := w.worlds[i%cycle]
	t0 := time.Now()
	ctl, err := fleet.New(fleet.Config{
		L: churnFounders, Local: w.local, Seed: wd.seed, Store: w.st, Tag: tag(i),
		DistributedBases: true, Obs: w.reg,
	})
	if err != nil {
		return err
	}
	res, v, err := ctl.Initial(wd.founding)
	if err != nil {
		return err
	}
	w.setups = append(w.setups, time.Since(t0).Seconds())
	w.ctl, w.founding = ctl, v
	w.worlds[i%cycle].initial = res
	return nil
}

// deriveLateSeeds finds the Phase 1 seeds the controller of world i
// draws for its late devices, so the traced replays of their Phase 1
// run on the same inputs and seeds as Join does, and counts the local
// clusters Phase 1 finds on the absorb wave under them. The controller's rng
// is seeded with the world's seed; Initial hands it to core.Run, and
// each Join then draws one seed per device before anything else. The
// absorb Join pools nothing (the op checks it), so the splice wave's
// seeds follow the absorb wave's. Replaying the founding round on a
// fresh rng and finding Initial's labels and bases confirms the stream.
func (w *fleetChurn) deriveLateSeeds(i int) error {
	wd := &w.worlds[i]
	rng := rand.New(rand.NewSource(wd.seed))
	res := core.Run(wd.founding, churnFounders, core.Options{Local: w.local, DistributedBases: true, Obs: w.replay}, rng)
	if !reflect.DeepEqual(res.Labels, wd.initial.Labels) || !reflect.DeepEqual(res.GlobalBases, wd.initial.GlobalBases) {
		return fmt.Errorf("world %d: replaying the founding round on the controller's seed does not give Initial's labels and bases", i)
	}
	wd.lateSeeds = make([]int64, len(wd.absorb)+len(wd.splice))
	for k := range wd.lateSeeds {
		wd.lateSeeds[k] = rng.Int63()
	}
	wd.localClusters = 0
	for z, x := range wd.absorb {
		wd.localClusters += core.LocalClusterAndSample(x, w.local, rand.New(rand.NewSource(wd.lateSeeds[z]))).R()
	}
	return nil
}

// op runs the churn cycle on world i mod cycle and checks it: the absorb
// wave absorbs every local cluster and leaves the digest unchanged, the
// splice publishes exactly one
// version under tag@v2, the fleet assigns every point at 100% accuracy,
// and the rollback restores the exact founding digest.
func (w *fleetChurn) op(i int, tr *tracer) (int, func(), error) {
	wd := w.worlds[i%cycle]
	ctl, st := w.ctl, w.st
	root := tr.open("op", -1)
	iters0, solves0 := w.itersC.Value(), w.solvesC.Value()

	absorbSpan := tr.open("fleet.absorb", root)
	absorbed, err := ctl.Join(wd.absorb)
	tr.close(absorbSpan)
	if err != nil {
		return wd.latePoints, nil, fmt.Errorf("absorb join: %w", err)
	}
	spliceSpan := tr.open("fleet.splice", root)
	spliced, err := ctl.Join(wd.splice)
	tr.close(spliceSpan)
	if err != nil {
		return wd.latePoints, nil, fmt.Errorf("splice join: %w", err)
	}
	scoreSpan := tr.open("fleet.score", root)
	var pred []int
	for _, x := range append(append(append([]*mat.Dense(nil), wd.founding...), wd.absorb...), wd.splice...) {
		labels, _, err := ctl.Assign(x)
		if err != nil {
			return wd.latePoints, nil, fmt.Errorf("assign: %w", err)
		}
		pred = append(pred, labels...)
	}
	tr.close(scoreSpan)
	rollbackSpan := tr.open("fleet.rollback", root)
	back, err := ctl.Rollback()
	tr.close(rollbackSpan)
	tr.close(root)
	if err != nil {
		return wd.latePoints, nil, fmt.Errorf("rollback: %w", err)
	}

	var truth []int
	for _, t := range wd.truth {
		truth = append(truth, t...)
	}
	acc := metrics.Accuracy(truth, pred)
	w.acc = append(w.acc, acc)
	switch {
	case absorbed.Changed || absorbed.Version.Digest != w.founding.Digest || absorbed.Absorbed != wd.localClusters:
		return wd.latePoints, nil, fmt.Errorf("absorb wave: changed %v, digest %.12s (founding %.12s), absorbed %d of %d",
			absorbed.Changed, absorbed.Version.Digest, w.founding.Digest, absorbed.Absorbed, wd.localClusters)
	case !spliced.Changed || spliced.Spliced != 1 || len(ctl.History()) != 2:
		return wd.latePoints, nil, fmt.Errorf("splice wave: changed %v, spliced %d, %d versions published",
			spliced.Changed, spliced.Spliced, len(ctl.History()))
	case spliced.Version.Tag != tag(i)+"@v2":
		return wd.latePoints, nil, fmt.Errorf("splice published %s, want %s@v2", spliced.Version.Tag, tag(i))
	case acc < 100:
		return wd.latePoints, nil, fmt.Errorf("fleet accuracy %.2f%%, want 100%%", acc)
	case back.Digest != w.founding.Digest || store.Digest(ctl.Model()) != w.founding.Digest:
		return wd.latePoints, nil, fmt.Errorf("rollback landed on %.12s, want founding %.12s", back.Digest, w.founding.Digest)
	}
	if d, ok := st.Resolve(spliced.Version.Tag); !ok || d != spliced.Version.Digest {
		return wd.latePoints, nil, fmt.Errorf("manifest %s -> %.12s, want %.12s", spliced.Version.Tag, d, spliced.Version.Digest)
	}
	if d, _ := st.Resolve(tag(i)); d != w.founding.Digest {
		return wd.latePoints, nil, fmt.Errorf("manifest alias %s -> %.12s after rollback, want founding %.12s", tag(i), d, w.founding.Digest)
	}
	if tr == nil {
		return wd.latePoints, nil, nil
	}
	w.absorbed += absorbed.Absorbed
	w.spliced += spliced.Spliced
	w.iters += w.itersC.Value() - iters0
	w.solves += w.solvesC.Value() - solves0
	replay := func() {
		w.absorbMs = append(w.absorbMs, spanDur(tr, absorbSpan))
		w.spliceMs = append(w.spliceMs, spanDur(tr, spliceSpan))
		w.scoreMs = append(w.scoreMs, spanDur(tr, scoreSpan))
		w.rollbackMs = append(w.rollbackMs, spanDur(tr, rollbackSpan))
		w.traceLayers(tr, wd, absorbSpan, spliceSpan, rollbackSpan, ctl.History()[1])
	}
	return wd.latePoints, replay, nil
}

func spanDur(tr *tracer, id int) time.Duration {
	start, end := tr.bounds(id)
	return end - start
}

// traceLayers replays the layers inside the churn cycle: the late
// devices' Phase 1 inside each Join (over GOMAXPROCS lanes, as Join runs
// them, with the controller's per-device seeds), the distributed SVD
// refining the spliced cluster's basis and the store write of the
// spliced model inside the splice Join, and the store read of the
// founding model inside the rollback.
//
// The distributed SVD replay is for timing only: it runs on the splice
// wave's columns of the unseen subspace with its own seed, not on the
// controller's cluster-assigned blocks with the seed the controller
// drew after its delta sub-solve. dsvd.iters comes from the program's
// own counters instead.
func (w *fleetChurn) traceLayers(tr *tracer, wd churnWorld, absorbSpan, spliceSpan, rollbackSpan int, splice fleet.Version) {
	phase1 := func(span int, devices []*mat.Dense, held []int, seeds []int64) *replayer {
		start, _ := tr.bounds(span)
		lanes := newReplayer(tr, span, start, w.procs)
		for z, x := range devices {
			p := replayPhase1(x, w.local, seeds[z])
			p.record(tr, lanes.add("phase1.device", p.device))
			w.p1.add(p, p.device, held[z])
		}
		return lanes
	}
	n := len(wd.absorb)
	phase1(absorbSpan, wd.absorb, wd.lateHeld[:n], wd.lateSeeds[:n])
	lanes := phase1(spliceSpan, wd.splice, wd.lateHeld[n:], wd.lateSeeds[n:])
	after := newReplayer(tr, spliceSpan, lanes.end(), 1)

	t0 := time.Now()
	_, _ = dsvd.Run(wd.unseen, dsvd.Options{K: churnDim, Seed: wd.seed, Obs: w.replay})
	refine := time.Since(t0)
	w.refine = append(w.refine, refine)
	after.add("dsvd.refine", refine)

	m, err := w.st.Get(splice.Digest)
	if err == nil {
		t0 = time.Now()
		_, err = w.probe.PutTagged("probe", m)
		put := time.Since(t0)
		if err == nil {
			w.put = append(w.put, put)
			after.add("store.put", put)
		}
	}
	t0 = time.Now()
	_, err = w.st.Get(w.founding.Digest)
	get := time.Since(t0)
	if err == nil {
		w.get = append(w.get, get)
		start, _ := tr.bounds(rollbackSpan)
		newReplayer(tr, rollbackSpan, start, 1).add("store.get", get)
	}
}
