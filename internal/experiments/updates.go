package experiments

import (
	"fmt"
	"time"

	"mie/internal/dataset"
	"mie/internal/device"
)

// UpdateRow is one bar group of Figures 2/3 (and the energy columns of
// Figure 6): the cost of initializing a repository and uploading N
// multimodal objects on one device with one scheme, broken into the paper's
// sub-operations.
type UpdateRow struct {
	Scheme string
	N      int

	Encrypt time.Duration
	Network time.Duration
	Index   time.Duration
	Train   time.Duration
	Total   time.Duration

	// EnergyAddMAh is the battery drain of the add-N phase (everything but
	// Train); EnergyTrainMAh isolates the training drain — the two bar
	// families of Figure 6. BatteryExceeded marks the Hom-MSSE shutdowns.
	EnergyAddMAh    float64
	EnergyTrainMAh  float64
	BatteryExceeded bool
}

// UpdateExperiment reproduces Figure 2 (mobile) or Figure 3 (desktop): for
// each scheme and corpus size, upload the corpus and (for the baselines)
// train, measuring per-category client cost on the given device profile.
func UpdateExperiment(profile device.Profile, cfg Config) ([]UpdateRow, error) {
	var rows []UpdateRow
	for _, scheme := range Schemes() {
		for _, n := range cfg.Sizes {
			row, err := runUpdate(scheme, profile, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s n=%d: %w", scheme, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runUpdate(scheme string, profile device.Profile, cfg Config, n int) (UpdateRow, error) {
	corpus := dataset.Flickr(dataset.FlickrParams{
		N:         n,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed,
	})
	meter := device.NewMeter(profile)
	repoID := fmt.Sprintf("upd-%s-%d", scheme, n)

	stack, err := newScheme(scheme, cfg, meter, repoID)
	if err != nil {
		return UpdateRow{}, err
	}
	for _, obj := range corpus {
		if err := stack.add(obj); err != nil {
			return UpdateRow{}, err
		}
	}
	if err := stack.train(); err != nil {
		return UpdateRow{}, err
	}

	row := UpdateRow{
		Scheme:  scheme,
		N:       n,
		Encrypt: meter.Time(device.Encrypt),
		Network: meter.Time(device.Network),
		Index:   meter.Time(device.Index),
		Train:   meter.Time(device.Train),
		Total:   meter.Total(),
	}
	row.EnergyTrainMAh = meter.CategoryEnergyMAh(device.Train)
	row.EnergyAddMAh = meter.EnergyMAh() - row.EnergyTrainMAh
	row.BatteryExceeded = meter.ExceedsBattery()
	return row, nil
}
