package experiments

import (
	"context"
	"fmt"
	"time"

	"mie/internal/dataset"
)

// Table1Row is one row of Table I: a scheme's asymptotic profile. The
// analytical columns restate the paper's analysis; the empirical columns
// are measured by Table1 to confirm the shape on this implementation.
type Table1Row struct {
	Scheme        string
	SearchTime    string
	UpdateTime    string
	ClientStorage string
	QueryType     string
	SearchLeakage string
	UpdateLeakage string
}

// Table1Static returns the analytical rows for the three implemented
// schemes (the literature rows of the full table are commentary, not code).
func Table1Static() []Table1Row {
	return []Table1Row{
		{
			Scheme:        SchemeMSSE,
			SearchTime:    "O(m/n)",
			UpdateTime:    "O(m/n)",
			ClientStorage: "O(n)",
			QueryType:     "Multimodal",
			SearchLeakage: "ID(w), ID(d), freq(w)",
			UpdateLeakage: "-",
		},
		{
			Scheme:        SchemeHomMSSE,
			SearchTime:    "O(m/n)",
			UpdateTime:    "O(m/n)",
			ClientStorage: "O(n)",
			QueryType:     "Multimodal",
			SearchLeakage: "ID(w), ID(d)",
			UpdateLeakage: "-",
		},
		{
			Scheme:        SchemeMIE,
			SearchTime:    "O(m/n)",
			UpdateTime:    "O(m/n)",
			ClientStorage: "O(1)",
			QueryType:     "Multimodal",
			SearchLeakage: "ID(w), ID(d)",
			UpdateLeakage: "ID(w), freq(w)",
		},
	}
}

// Table1Scaling holds the empirical check: per-operation latency at two
// repository sizes. Sub-linear (indexed) search should stay roughly flat
// when the repository doubles; a linear scan should roughly double.
type Table1Scaling struct {
	SmallN, LargeN            int
	IndexedSearchSmall        time.Duration
	IndexedSearchLarge        time.Duration
	LinearSearchSmall         time.Duration
	LinearSearchLarge         time.Duration
	UpdateSmall, UpdateLarge  time.Duration
	IndexedRatio, LinearRatio float64
	UpdateRatio               float64
	// SpeedupLarge is linear/indexed search time at the larger repository —
	// the concrete payoff of the O(m/n) index over the O(|F|) scan.
	SpeedupLarge float64
}

// Table1Empirical measures MIE's per-operation scaling, demonstrating the
// O(m/n) search column: trained (indexed) search cost grows far slower than
// repository size, while the untrained linear fallback grows linearly.
func Table1Empirical(cfg Config) (*Table1Scaling, error) {
	small := cfg.SearchRepoSize
	large := small * 2
	query := dataset.Flickr(dataset.FlickrParams{N: 1, ImageSize: cfg.ImageSize, Seed: cfg.Seed + 50})[0]

	const reps = 20
	measure := func(n int, train bool) (search, update time.Duration, err error) {
		stack, err := newMIE(cfg, nil, fmt.Sprintf("t1-%d-%v", n, train), paperDense)
		if err != nil {
			return 0, 0, err
		}
		corpus := dataset.Flickr(dataset.FlickrParams{N: n, ImageSize: cfg.ImageSize, Seed: cfg.Seed})
		for _, obj := range corpus {
			if err := stack.add(obj); err != nil {
				return 0, 0, err
			}
		}
		if train {
			if err := stack.repo.TrainContext(context.Background()); err != nil {
				return 0, 0, err
			}
		}
		for i := 0; i < reps; i++ {
			d, err := mieSearchOnce(stack, query, cfg.K)
			if err != nil {
				return 0, 0, err
			}
			search += d
		}
		search /= reps
		// One more update, timed end to end (server side included).
		extra := dataset.Flickr(dataset.FlickrParams{N: 1, ImageSize: cfg.ImageSize, Seed: cfg.Seed + 99})[0]
		extra.ID = fmt.Sprintf("extra-%d", n)
		start := time.Now()
		if err := stack.add(extra); err != nil {
			return 0, 0, err
		}
		update = time.Since(start)
		return search, update, nil
	}

	out := &Table1Scaling{SmallN: small, LargeN: large}
	var err error
	if out.IndexedSearchSmall, out.UpdateSmall, err = measure(small, true); err != nil {
		return nil, err
	}
	if out.IndexedSearchLarge, out.UpdateLarge, err = measure(large, true); err != nil {
		return nil, err
	}
	if out.LinearSearchSmall, _, err = measure(small, false); err != nil {
		return nil, err
	}
	if out.LinearSearchLarge, _, err = measure(large, false); err != nil {
		return nil, err
	}
	out.IndexedRatio = ratio(out.IndexedSearchLarge, out.IndexedSearchSmall)
	out.LinearRatio = ratio(out.LinearSearchLarge, out.LinearSearchSmall)
	out.UpdateRatio = ratio(out.UpdateLarge, out.UpdateSmall)
	out.SpeedupLarge = ratio(out.LinearSearchLarge, out.IndexedSearchLarge)
	return out, nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
