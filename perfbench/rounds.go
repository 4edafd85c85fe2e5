package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"fedsc/internal/chaos"
	"fedsc/internal/core"
	"fedsc/internal/fednet"
	"fedsc/internal/mat"
	"fedsc/internal/obs"
	"fedsc/internal/privacy"
	"fedsc/internal/spectral"
	"fedsc/internal/subspace"
)

// devicesShape mirrors examples/healthcare: 64 devices, each holding 3
// of 16 subspaces of dimension 5 in R^128, 12 points per subspace.
var devicesShape = shape{devices: 64, subspaces: 16, perDevice: 3, points: 12, dim: 5, ambient: 128}

// pooledShape makes Phase 2 and export dominate: 128 devices, each
// holding 2 of 8 subspaces of dimension 3 in R^64, 6 points per
// subspace, so 256 samples are pooled at the server.
var pooledShape = shape{devices: 128, subspaces: 8, perDevice: 2, points: 6, dim: 3, ambient: 64}

// localOptions is Phase 1 for both round workloads: the eigengap
// estimate of r, capped at twice the subspaces a device holds.
func localOptions(sh shape) core.LocalOptions {
	return core.LocalOptions{UseEigengap: true, RMax: 2 * sh.perDevice}
}

// phase1Times are the public calls Phase 1 is made of, timed by calling
// them again on a device's data with the device's seed.
type phase1Times struct {
	device, ssc, spectral, basis time.Duration
	lr                           core.LocalResult
}

func replayPhase1(x *mat.Dense, local core.LocalOptions, seed int64) phase1Times {
	var p phase1Times
	t0 := time.Now()
	p.lr = core.LocalClusterAndSample(x, local, rand.New(rand.NewSource(seed)))
	p.device = time.Since(t0)
	t0 = time.Now()
	coef := subspace.SSCCoefficients(x, local.SSC)
	w := subspace.AffinityFromCoefficients(coef, 1e-8)
	p.ssc = time.Since(t0)
	t0 = time.Now()
	spectral.EstimateAndCluster(w, local.RMax, rand.New(rand.NewSource(seed)))
	p.spectral = time.Since(t0)
	t0 = time.Now()
	for t, idx := range p.lr.Partitions {
		sub := x.SelectCols(idx)
		mat.SingularValues(sub)
		mat.TruncatedSVD(sub, p.lr.Dims[t])
	}
	p.basis = time.Since(t0)
	return p
}

// record lays the replayed Phase 1 calls inside device span dev.
func (p phase1Times) record(tr *tracer, dev int) {
	start, _ := tr.bounds(dev)
	r := newReplayer(tr, dev, start, 1)
	r.add("phase1.ssc", p.ssc)
	r.add("phase1.spectral", p.spectral)
	r.add("phase1.basis", p.basis)
}

// phase1Obs accumulates the traced Phase 1 observations of a run.
type phase1Obs struct {
	device, deviceMax, ssc, spectral, basis []time.Duration
	exact, devices                          int
}

func (o *phase1Obs) add(p phase1Times, device time.Duration, held int) {
	o.device = append(o.device, device)
	o.ssc = append(o.ssc, p.ssc)
	o.spectral = append(o.spectral, p.spectral)
	o.basis = append(o.basis, p.basis)
	o.devices++
	if p.lr.R() == held {
		o.exact++
	}
}

func (o *phase1Obs) fill(m map[string]float64) {
	m["phase1.device_ms"] = medianDur(o.device) / 1e6
	m["phase1.device_max_ms"] = medianDur(o.deviceMax) / 1e6
	m["phase1.ssc_ms"] = medianDur(o.ssc) / 1e6
	m["phase1.spectral_ms"] = medianDur(o.spectral) / 1e6
	m["phase1.basis_ms"] = medianDur(o.basis) / 1e6
	if o.devices > 0 {
		m["phase1.r_exact_pct"] = 100 * float64(o.exact) / float64(o.devices)
	}
}

// warmupPasses is how many times warmup runs the cycle of datasets.
const warmupPasses = 3

// warmup runs warmupPasses passes over the datasets before timing: the
// first checks every input once, and all of them let lazy
// initialization and heap growth finish. A round has no other set-up,
// so these first ops are the set-up samples; setup_s is their median.
// The first ops of a process vary by up to 2x (0.08 to 0.17 s on
// round-devices), too much for a median of 8 samples to settle.
func warmup(op opFunc) (float64, error) {
	var samples []float64
	for i := 0; i < warmupPasses*cycle; i++ {
		t0 := time.Now()
		if _, _, err := op(i, nil); err != nil {
			return 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	fmt.Printf("set-up samples (s): %.4f\n", samples)
	return medianOf(samples), nil
}

// roundDevices is the networked one-shot round: a fednet.Server with
// Export on and one fednet.RunClientDialerWire per device over a
// fault-free chaos.PipeNet, uploading 8-bit quantized samples.
type roundDevices struct {
	data  []dataset
	local core.LocalOptions
	quant privacy.Quantizer
	reg   *obs.Registry
	procs int

	acc            []float64
	p1             phase1Obs
	central        []time.Duration
	export         []time.Duration
	exchange       []time.Duration
	closing        []time.Duration
	pooled         int
	lastUp         int64
	up, down, bits int64
	retries, fails int
}

func runRoundDevices(cfg config) (result, error) {
	w := &roundDevices{
		data:  genCycle(devicesShape, cfg.seed),
		local: localOptions(devicesShape),
		quant: privacy.Quantizer{Bits: 8},
		reg:   obs.NewRegistry(),
		procs: runtime.GOMAXPROCS(0),
	}
	setup, err := warmup(w.op)
	if err != nil {
		return result{}, err
	}
	w.acc = w.acc[:0]
	run, err := measureClosed(cfg, cycle, nil, w.op)
	if err != nil {
		return result{}, err
	}
	var res result
	run.e2e(&res, setup, medianOf(w.acc))
	fmt.Printf("uplink bytes per device: %.1f\n", float64(w.lastUp)/float64(devicesShape.devices))
	if cfg.trace {
		run.layers(&res)
		ops := float64(len(run.traced.lat))
		w.p1.fill(res.layer)
		res.layer["phase2.central_ms"] = medianDur(w.central) / 1e6
		res.layer["phase2.pooled"] = float64(w.pooled)
		res.layer["export.bases_ms"] = medianDur(w.export) / 1e6
		res.layer["wire.uplink_bytes"] = float64(w.up) / ops
		res.layer["wire.uplink_bytes_per_device"] = float64(w.up) / ops / float64(devicesShape.devices)
		res.layer["wire.downlink_bytes"] = float64(w.down) / ops
		res.layer["wire.payload_bits"] = float64(w.bits) / ops
		res.layer["wire.retries"] = float64(w.retries) / ops
		res.layer["wire.failures"] = float64(w.fails) / ops
		res.layer["wire.exchange_ms"] = medianDur(w.exchange) / 1e6
		res.layer["wire.close_ms"] = medianDur(w.closing) / 1e6
	}
	return res, nil
}

// op runs one networked round on dataset i mod cycle and checks it: no
// wire failure, every device answered, an exported model, and labels
// at 100% Hungarian accuracy.
func (w *roundDevices) op(i int, tr *tracer) (int, func(), error) {
	d := w.data[i%cycle]
	z := len(d.devices)
	pn := chaos.NewPipeNet()
	defer pn.Close()
	srv := &fednet.Server{L: d.subs.L(), Expect: z, Seed: d.seed, Export: true, Obs: w.reg}
	policy := fednet.RetryPolicy{MaxAttempts: 1, Timeout: 30 * time.Second}
	wire := fednet.WireOptions{Quant: &w.quant}

	root := tr.open("op", -1)
	type served struct {
		stats fednet.ServeStats
		err   error
		end   time.Duration
	}
	done := make(chan served, 1)
	go func() {
		stats, err := srv.Serve(pn.Listener())
		done <- served{stats, err, tr.now()}
	}()
	// At most procs devices run Phase 1 at once: a device takes a slot
	// before it starts and gives it back in its dial hook, so devices
	// that have uploaded wait idle on the collect barrier.
	sem := make(chan struct{}, w.procs)
	labels := make([][]int, z)
	errs := make([]error, z)
	spans := make([]int, z)
	dialed := make([]time.Duration, z)
	returned := make([]time.Duration, z)
	var wg sync.WaitGroup
	for dev := 0; dev < z; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			sem <- struct{}{}
			spans[dev] = tr.open("phase1.device", root)
			held := true
			dial := func() (net.Conn, error) {
				if held {
					held = false
					tr.close(spans[dev])
					dialed[dev] = tr.now()
					<-sem
				}
				return pn.Dial()
			}
			res, err := fednet.RunClientDialerWire(dial, dev, d.devices[dev], w.local, policy, wire, rand.New(rand.NewSource(d.deviceSeed(dev))))
			returned[dev] = tr.now()
			if held {
				<-sem
			}
			labels[dev], errs[dev] = res.Labels, err
		}(dev)
	}
	wg.Wait()
	s := <-done
	tr.close(root)

	for dev, err := range errs {
		if err != nil {
			return d.points, nil, fmt.Errorf("device %d: %w", dev, err)
		}
	}
	if s.err != nil {
		return d.points, nil, fmt.Errorf("server: %w", s.err)
	}
	if s.stats.Devices != z || len(s.stats.Failures) > 0 || s.stats.Model == nil {
		return d.points, nil, fmt.Errorf("server pooled %d of %d devices, failures %v, model exported %v",
			s.stats.Devices, z, s.stats.Failures, s.stats.Model != nil)
	}
	acc := d.accuracy(labels)
	w.acc = append(w.acc, acc)
	w.lastUp = s.stats.UplinkBytes
	if acc < 100 {
		return d.points, nil, fmt.Errorf("accuracy %.2f%%, want 100%%", acc)
	}
	if tr == nil {
		return d.points, nil, nil
	}
	w.up += s.stats.UplinkBytes
	w.down += s.stats.DownlinkBytes
	w.bits += s.stats.UplinkPayloadBits
	w.retries += s.stats.Retries
	w.fails += len(s.stats.Failures)
	w.pooled = s.stats.Samples
	return d.points, func() { w.traceLayers(tr, d, root, spans, dialed, returned, s.end) }, nil
}

// traceLayers replays the layers reachable only inside the round —
// Phase 1's parts on every device, the central clustering and the basis
// export on the pooled quantized samples — and records them as spans.
func (w *roundDevices) traceLayers(tr *tracer, d dataset, root int, spans []int, dialed, returned []time.Duration, served time.Duration) {
	parts := make([]*mat.Dense, len(d.devices))
	var maxDev, lastDial time.Duration
	for dev, x := range d.devices {
		p := replayPhase1(x, w.local, d.deviceSeed(dev))
		p.record(tr, spans[dev])
		start, end := tr.bounds(spans[dev])
		w.p1.add(p, end-start, len(d.held[dev]))
		if end-start > maxDev {
			maxDev = end - start
		}
		if dialed[dev] > lastDial {
			lastDial = dialed[dev]
		}
		w.exchange = append(w.exchange, returned[dev]-dialed[dev])
		parts[dev] = p.lr.Samples.Clone()
		if _, err := w.quant.Apply(parts[dev]); err != nil {
			panic(err) // an 8-bit quantizer is always valid
		}
	}
	w.p1.deviceMax = append(w.p1.deviceMax, maxDev)
	theta := mat.HStack(parts...)
	t0 := time.Now()
	central := core.CentralCluster(theta, len(parts), d.subs.L(), core.CentralOptions{}, rand.New(rand.NewSource(d.seed)))
	centralDur := time.Since(t0)
	t0 = time.Now()
	core.GlobalBases(theta, central.Labels, d.subs.L(), 0)
	exportDur := time.Since(t0)
	w.central = append(w.central, centralDur)
	w.export = append(w.export, exportDur)
	w.closing = append(w.closing, served-lastDial-centralDur-exportDur)
	closeSpan := tr.record("wire.close", root, lastDial, served)
	r := newReplayer(tr, closeSpan, lastDial, 1)
	r.add("phase2.central", centralDur)
	r.add("export.bases", exportDur)
}

// roundPooled is the in-process round: core.Run over the pooled shape.
type roundPooled struct {
	data  []dataset
	opts  core.Options
	procs int

	acc                        []float64
	p1                         phase1Obs
	central, export, aggregate []time.Duration
	pooled                     int
}

func runRoundPooled(cfg config) (result, error) {
	w := &roundPooled{
		data:  genCycle(pooledShape, cfg.seed),
		opts:  core.Options{Local: localOptions(pooledShape), Obs: obs.NewRegistry()},
		procs: runtime.GOMAXPROCS(0),
	}
	setup, err := warmup(w.op)
	if err != nil {
		return result{}, err
	}
	w.acc = w.acc[:0]
	run, err := measureClosed(cfg, cycle, nil, w.op)
	if err != nil {
		return result{}, err
	}
	var res result
	run.e2e(&res, setup, medianOf(w.acc))
	if cfg.trace {
		run.layers(&res)
		w.p1.fill(res.layer)
		res.layer["phase2.central_ms"] = medianDur(w.central) / 1e6
		res.layer["phase2.pooled"] = float64(w.pooled)
		res.layer["export.bases_ms"] = medianDur(w.export) / 1e6
		res.layer["phase23.aggregate_ms"] = medianDur(w.aggregate) / 1e6
	}
	return res, nil
}

// op runs core.Run on dataset i mod cycle and checks 100% accuracy.
func (w *roundPooled) op(i int, tr *tracer) (int, func(), error) {
	d := w.data[i%cycle]
	root := tr.open("op", -1)
	res := core.Run(d.devices, d.subs.L(), w.opts, rand.New(rand.NewSource(d.seed)))
	tr.close(root)
	acc := d.accuracy(res.Labels)
	w.acc = append(w.acc, acc)
	if acc < 100 {
		return d.points, nil, fmt.Errorf("accuracy %.2f%%, want 100%%", acc)
	}
	if tr == nil {
		return d.points, nil, nil
	}
	return d.points, func() { w.traceLayers(tr, d, root) }, nil
}

// traceLayers replays the round's layers with core.Run's own seeds:
// every device's Phase 1 (laid over GOMAXPROCS lanes, as core.Run runs
// them), then core.Aggregate, with core.CentralCluster and
// core.GlobalBases inside it.
func (w *roundPooled) traceLayers(tr *tracer, d dataset, root int) {
	rng := rand.New(rand.NewSource(d.seed))
	seeds := make([]int64, len(d.devices))
	for z := range seeds {
		seeds[z] = rng.Int63()
	}
	start, _ := tr.bounds(root)
	lanes := newReplayer(tr, root, start, w.procs)
	locals := make([]core.LocalResult, len(d.devices))
	parts := make([]*mat.Dense, len(d.devices))
	var maxDev time.Duration
	for z, x := range d.devices {
		p := replayPhase1(x, w.opts.Local, seeds[z])
		p.record(tr, lanes.add("phase1.device", p.device))
		w.p1.add(p, p.device, len(d.held[z]))
		if p.device > maxDev {
			maxDev = p.device
		}
		locals[z] = p.lr
		parts[z] = p.lr.Samples
	}
	w.p1.deviceMax = append(w.p1.deviceMax, maxDev)
	// Aggregate draws from the rng where core.Run's Phase 2 does: right
	// after the device seeds.
	aggRng := rand.New(rand.NewSource(d.seed))
	cenRng := rand.New(rand.NewSource(d.seed))
	for range seeds {
		aggRng.Int63()
		cenRng.Int63()
	}
	t0 := time.Now()
	core.Aggregate(d.devices, locals, d.subs.L(), w.opts, aggRng)
	aggDur := time.Since(t0)
	theta := mat.HStack(parts...)
	w.pooled = theta.Cols()
	t0 = time.Now()
	central := core.CentralCluster(theta, len(parts), d.subs.L(), w.opts.Central, cenRng)
	centralDur := time.Since(t0)
	t0 = time.Now()
	core.GlobalBases(theta, central.Labels, d.subs.L(), w.opts.Local.TargetDim)
	exportDur := time.Since(t0)
	w.aggregate = append(w.aggregate, aggDur)
	w.central = append(w.central, centralDur)
	w.export = append(w.export, exportDur)
	agg := lanes.end()
	aggSpan := tr.record("phase23.aggregate", root, agg, agg+aggDur)
	r := newReplayer(tr, aggSpan, agg, 1)
	r.add("phase2.central", centralDur)
	r.add("export.bases", exportDur)
}
