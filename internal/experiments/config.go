// Package experiments reproduces every table and figure of the paper's
// evaluation (§VII). Each experiment is a pure function from a Config to
// structured result rows, so the same code drives cmd/mie-bench, the
// testing.B benchmarks in the repository root, and EXPERIMENTS.md.
//
// The paper ran on a Nexus 7, a MacBook Pro and an EC2 m3.large; this
// reproduction runs all computation on one machine and maps measured work
// onto those devices through internal/device profiles. Absolute numbers
// therefore differ from the paper; the comparisons the figures make —
// which scheme wins, by how much, where the crossovers are — are preserved.
// The default Config scales the workloads down ~10x so the full suite runs
// in minutes; PaperScale restores the published sizes.
package experiments

import (
	"mie/internal/cluster"
	"mie/internal/imaging"
)

// Config parameterizes all experiments.
type Config struct {
	// Sizes is the corpus-size sweep of Figures 2, 3 and 6 (paper:
	// 1000, 2000, 3000).
	Sizes []int
	// SearchRepoSize is the repository size for Figure 5 (paper: 1000).
	SearchRepoSize int
	// MultiUserSize is the per-client upload count for Figure 4 (paper:
	// 1000 each).
	MultiUserSize int
	// HolidayGroups and HolidayPerGroup shape the Table III benchmark
	// (real Holidays: 500 groups, 1491 photos, ~3 per group).
	HolidayGroups   int
	HolidayPerGroup int
	// ImageSize is the synthetic photo side length.
	ImageSize int
	// Scales is the dense-pyramid scale set.
	Scales []int
	// Words is the visual vocabulary size selected by the flat k-means
	// training step (paper: 1000).
	Words int
	// TrainIters caps the flat k-means iterations (0 = library default).
	TrainIters int
	// TreeBranch/TreeHeight shape the lookup tree built over the words
	// (paper: 10 and 3).
	TreeBranch int
	TreeHeight int
	// PaillierBits sizes the Hom-MSSE keys (paper-equivalent: 1024).
	PaillierBits int
	// K is the top-k of search experiments (paper: 20).
	K int
	// ANNCorpus and ANNQueries size the approximate-dense-search sweep
	// (mie-bench -experiment ann): how many synthetic codes the candidate
	// index holds and how many queries score each (tables, bits, probes)
	// point.
	ANNCorpus  int
	ANNQueries int
	// TenancyRepos is how many repositories the multi-tenancy benchmark
	// (mie-bench -experiment tenancy) hosts on one lazily-activating service.
	TenancyRepos int
	// ClusterNodes is the cluster-size sweep of the read-scaling phase of
	// the replication benchmark (mie-bench -experiment cluster).
	ClusterNodes []int
	// ClusterRepos and ClusterObjects shape the replicated corpus: how
	// many repositories spread across the ring and how many text objects
	// each holds.
	ClusterRepos   int
	ClusterObjects int
	// ClusterWrites sizes the replication-lag burst and the failover
	// ledger (writes acknowledged across a leader kill and restart).
	ClusterWrites int
	// ClusterReadMillis is the wall-clock window of each read-scaling
	// measurement.
	ClusterReadMillis int
	// Seed drives all dataset generation.
	Seed int64
}

// Default returns the scaled-down configuration (~10x smaller than the
// paper) used by `go test -bench` and `mie-bench` without flags.
func Default() Config {
	return Config{
		Sizes:             []int{100, 200, 300},
		SearchRepoSize:    100,
		MultiUserSize:     100,
		HolidayGroups:     30,
		HolidayPerGroup:   3,
		ImageSize:         48,
		Scales:            []int{16, 32},
		Words:             200,
		TrainIters:        15,
		TreeBranch:        4,
		TreeHeight:        3,
		PaillierBits:      512,
		K:                 10,
		ANNCorpus:         10000,
		ANNQueries:        200,
		TenancyRepos:      10000,
		ClusterNodes:      []int{1, 2, 4},
		ClusterRepos:      8,
		ClusterObjects:    10,
		ClusterWrites:     120,
		ClusterReadMillis: 1500,
		Seed:              1,
	}
}

// PaperScale returns the published workload sizes. Expect long runtimes:
// Hom-MSSE at 3000 objects is the experiment that drained a tablet battery.
func PaperScale() Config {
	return Config{
		Sizes:             []int{1000, 2000, 3000},
		SearchRepoSize:    1000,
		MultiUserSize:     1000,
		HolidayGroups:     500,
		HolidayPerGroup:   3,
		ImageSize:         128,
		Scales:            []int{16, 32, 64},
		Words:             1000,
		TrainIters:        25,
		TreeBranch:        10,
		TreeHeight:        3,
		PaillierBits:      1024,
		K:                 20,
		ANNCorpus:         100000,
		ANNQueries:        500,
		TenancyRepos:      100000,
		ClusterNodes:      []int{1, 2, 4},
		ClusterRepos:      16,
		ClusterObjects:    20,
		ClusterWrites:     300,
		ClusterReadMillis: 3000,
		Seed:              1,
	}
}

// PaperSample returns the paper's *parameters* (image size, vocabulary,
// 1024-bit Paillier) on a 100-object sample: per-object costs match the
// published workload, so figures extrapolate linearly to the 1000-3000
// sweeps without the multi-hour runtime.
func PaperSample() Config {
	cfg := PaperScale()
	cfg.Sizes = []int{100}
	cfg.SearchRepoSize = 100
	cfg.MultiUserSize = 100
	cfg.HolidayGroups = 50
	cfg.ANNCorpus = 10000
	cfg.ANNQueries = 200
	cfg.TenancyRepos = 10000
	cfg.ClusterRepos = 8
	cfg.ClusterObjects = 10
	cfg.ClusterWrites = 120
	cfg.ClusterReadMillis = 1500
	return cfg
}

// Quick returns a minimal configuration for smoke tests.
func Quick() Config {
	return Config{
		Sizes:             []int{20, 40},
		SearchRepoSize:    20,
		MultiUserSize:     10,
		HolidayGroups:     8,
		HolidayPerGroup:   3,
		ImageSize:         32,
		Scales:            []int{16},
		Words:             40,
		TrainIters:        10,
		TreeBranch:        3,
		TreeHeight:        2,
		PaillierBits:      512,
		K:                 5,
		ANNCorpus:         2000,
		ANNQueries:        50,
		TenancyRepos:      500,
		ClusterNodes:      []int{1, 2},
		ClusterRepos:      4,
		ClusterObjects:    6,
		ClusterWrites:     40,
		ClusterReadMillis: 700,
		Seed:              1,
	}
}

func (c Config) pyramid() imaging.PyramidParams {
	return imaging.PyramidParams{Scales: c.Scales}
}

func (c Config) tree() cluster.TreeParams {
	return cluster.TreeParams{Branch: c.TreeBranch, Height: c.TreeHeight, Seed: c.Seed}
}

func (c Config) vocab() cluster.VocabParams {
	return cluster.VocabParams{
		Words:   c.Words,
		Tree:    c.tree(),
		Seed:    c.Seed,
		MaxIter: c.TrainIters,
	}
}
