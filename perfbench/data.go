package main

import (
	"math/rand"
	"sort"

	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/synth"
)

// cycle is how many distinct generated datasets (each with its own fixed
// op seed) a workload's ops cycle through. Every op on a dataset does
// identical work, so op cost does not depend on which rng an op drew.
const cycle = 8

// shape is a federated dataset: devices each holding perDevice of the
// subspaces, points per subspace, every subspace of dimension dim in
// R^ambient.
type shape struct {
	devices, subspaces, perDevice, points, dim, ambient int
}

// dataset is one generated federated input.
type dataset struct {
	subs    synth.Subspaces
	devices []*mat.Dense
	truth   [][]int // ground-truth subspace of every point, per device
	held    [][]int // subspaces each device holds
	points  int
	seed    int64 // the op seed: server, controller and device rngs derive from it
}

// genDataset draws one dataset from rng. Subspaces are dealt to devices
// round-robin through a random permutation, so every subspace is held by
// the same number of devices and reaches the server with the same
// number of samples.
func genDataset(sh shape, rng *rand.Rand) dataset {
	d := dataset{subs: synth.RandomSubspaces(sh.ambient, sh.dim, sh.subspaces, rng), seed: rng.Int63()}
	perm := rng.Perm(sh.subspaces)
	for z := 0; z < sh.devices; z++ {
		held := make([]int, sh.perDevice)
		for j := range held {
			held[j] = perm[(z*sh.perDevice+j)%sh.subspaces]
		}
		sort.Ints(held)
		counts := make([]int, sh.subspaces)
		for _, l := range held {
			counts[l] = sh.points
		}
		ds := d.subs.SampleCounts(counts, rng)
		d.devices = append(d.devices, ds.X)
		d.truth = append(d.truth, ds.Labels)
		d.held = append(d.held, held)
		d.points += ds.N()
	}
	return d
}

// genCycle draws the workload's fixed cycle of datasets from the seed.
func genCycle(sh shape, seed int64) []dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset, cycle)
	for i := range out {
		out[i] = genDataset(sh, rng)
	}
	return out
}

// deviceSeed is the fixed rng seed of device z in a dataset.
func (d dataset) deviceSeed(z int) int64 { return d.seed + 7919*int64(z+1) }

// accuracy is the Hungarian-matched accuracy (percent) of per-device
// labels against the ground truth.
func (d dataset) accuracy(labels [][]int) float64 {
	var truth, pred []int
	for z := range d.truth {
		if len(labels) != len(d.truth) || len(labels[z]) != len(d.truth[z]) {
			return 0
		}
		truth = append(truth, d.truth[z]...)
		pred = append(pred, labels[z]...)
	}
	return metrics.Accuracy(truth, pred)
}
