package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mie/internal/client"
	"mie/internal/core"
	"mie/internal/dataset"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/imaging"
	"mie/internal/server"
)

// MultiUserRow is one client's bar of Figure 4: per-category cost when two
// clients — one mobile, one desktop — concurrently upload MultiUserSize
// objects each into one shared MIE repository over real TCP connections.
type MultiUserRow struct {
	Device  string
	N       int
	Encrypt time.Duration
	Network time.Duration
	Index   time.Duration
	Total   time.Duration
}

// MultiUserExperiment reproduces Figure 4. Only MIE runs it: the baselines
// would serialize on shared counter state (MSSE) or need key distribution
// round trips (both), which is exactly the point the figure makes.
func MultiUserExperiment(cfg Config) ([]MultiUserRow, error) {
	svc, _, err := core.OpenService(core.ServiceOptions{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New("127.0.0.1:0", svc, nil)
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }() // experiment result does not depend on teardown

	// Shared repository, created once.
	bootstrap, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		return nil, err
	}
	if err := bootstrap.CreateRepository(context.Background(), "fig4", cfg.repoOptions()); err != nil {
		return nil, err
	}
	if err := bootstrap.Close(); err != nil {
		return nil, err
	}

	profiles := []device.Profile{device.Mobile, device.Desktop}
	rows := make([]MultiUserRow, len(profiles))
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p device.Profile) {
			defer wg.Done()
			rows[i], errs[i] = runMultiUserClient(cfg, srv.Addr(), p, i)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func runMultiUserClient(cfg Config, addr string, p device.Profile, id int) (MultiUserRow, error) {
	meter := device.NewMeter(p)
	cc, err := core.NewClient(core.ClientConfig{
		Key:     core.RepositoryKey{Master: masterKey(1)},
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 512, Threshold: 0.5},
		Pyramid: cfg.pyramid(),
		Meter:   meter,
	})
	if err != nil {
		return MultiUserRow{}, err
	}
	conn, err := client.Dial(addr, meter)
	if err != nil {
		return MultiUserRow{}, err
	}
	defer func() { _ = conn.Close() }() // measurement already captured

	corpus := dataset.Flickr(dataset.FlickrParams{
		N:         cfg.MultiUserSize,
		ImageSize: cfg.ImageSize,
		Seed:      cfg.Seed + int64(id)*7919,
		Owner:     p.Name,
	})
	for _, obj := range corpus {
		obj.ID = fmt.Sprintf("%s-%s", p.Name, obj.ID)
		up, err := cc.PrepareUpdate(obj, dataKey())
		if err != nil {
			return MultiUserRow{}, err
		}
		if err := conn.Update(context.Background(), "fig4", up); err != nil {
			return MultiUserRow{}, err
		}
	}
	return MultiUserRow{
		Device:  p.Name,
		N:       cfg.MultiUserSize,
		Encrypt: meter.Time(device.Encrypt),
		Network: meter.Time(device.Network),
		Index:   meter.Time(device.Index),
		Total:   meter.Total(),
	}, nil
}
