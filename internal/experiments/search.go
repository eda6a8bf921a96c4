package experiments

import (
	"sort"
	"time"

	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/device"
)

// SearchRow is one bar group of Figure 5: the end-to-end latency of one
// multimodal query on a trained repository of SearchRepoSize objects, per
// scheme and device.
type SearchRow struct {
	Scheme string
	Device string

	Encrypt time.Duration
	Network time.Duration
	Index   time.Duration
	Total   time.Duration
}

// SearchExperiment reproduces Figure 5. Each scheme's repository is built
// and trained once; the measured phase is the query alone, averaged over
// `queries` runs (the paper reports single-query latency).
func SearchExperiment(cfg Config) ([]SearchRow, error) {
	const queries = 5
	corpus := dataset.Flickr(dataset.FlickrParams{
		N:         cfg.SearchRepoSize,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})
	queryObj := dataset.Flickr(dataset.FlickrParams{
		N:         1,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed + 999,
	})[0]

	var rows []SearchRow
	profiles := []device.Profile{device.Desktop, device.Mobile}

	for _, name := range Schemes() {
		build, err := newScheme(name, cfg, nil, "srch-"+name)
		if err != nil {
			return nil, err
		}
		for _, obj := range corpus {
			if err := build.add(obj); err != nil {
				return nil, err
			}
		}
		if err := build.train(); err != nil {
			return nil, err
		}
		for _, p := range profiles {
			meter := device.NewMeter(p)
			user, err := build.queryClient(meter)
			if err != nil {
				return nil, err
			}
			for i := 0; i < queries; i++ {
				if _, err := user.search(queryObj, cfg.K); err != nil {
					return nil, err
				}
			}
			rows = append(rows, searchRow(name, p, meter, queries))
		}
	}
	// Figure 5 leads with the proposal.
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].Scheme == SchemeMIE && rows[j].Scheme != SchemeMIE
	})
	return rows, nil
}

func searchRow(scheme string, p device.Profile, meter *device.Meter, queries int) SearchRow {
	div := func(d time.Duration) time.Duration { return d / time.Duration(queries) }
	return SearchRow{
		Scheme:  scheme,
		Device:  p.Name,
		Encrypt: div(meter.Time(device.Encrypt)),
		Network: div(meter.Time(device.Network)),
		Index:   div(meter.Time(device.Index)),
		Total:   div(meter.Total()),
	}
}

// mieSearchOnce is shared with Table 1's empirical scaling check.
func mieSearchOnce(stack *mieStack, query *core.Object, k int) (time.Duration, error) {
	q, err := stack.client.PrepareQuery(query, k)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := stack.repo.Search(q); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
