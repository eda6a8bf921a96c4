package mie

// The benchmark harness: one Benchmark per table and figure of the paper's
// evaluation (run the full paper-style reports with cmd/mie-bench), plus
// micro-benchmarks for the primitives that dominate each figure. Figure
// benchmarks use the Quick experiment scale so `go test -bench=.` completes
// in minutes; key shape numbers are attached via b.ReportMetric.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mie/internal/audio"
	"mie/internal/cluster"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/device"
	"mie/internal/dpe"
	"mie/internal/experiments"
	"mie/internal/imaging"
	"mie/internal/index"
	"mie/internal/paillier"
	"mie/internal/text"
	"mie/internal/vec"
)

// --- Table I: complexity/scaling ------------------------------------------

func BenchmarkTable1_Scaling(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Table1Empirical(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.IndexedRatio, "indexed-search-growth")
		b.ReportMetric(s.LinearRatio, "linear-search-growth")
	}
}

// --- Table II: DPE distance preservation ----------------------------------

func BenchmarkTable2_DPEDistances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].D03, "dense-de-at-dp0.3")
		b.ReportMetric(rows[0].D10, "dense-de-at-dp1.0")
	}
}

// --- Figures 2/3: update performance --------------------------------------

func benchUpdate(b *testing.B, profile device.Profile) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateExperiment(profile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mie, hom float64
		for _, r := range rows {
			if r.N != cfg.Sizes[len(cfg.Sizes)-1] {
				continue
			}
			switch r.Scheme {
			case experiments.SchemeMIE:
				mie = r.Total.Seconds()
			case experiments.SchemeHomMSSE:
				hom = r.Total.Seconds()
			}
		}
		b.ReportMetric(mie, "mie-total-s")
		if mie > 0 {
			b.ReportMetric(hom/mie, "hommsse-over-mie")
		}
	}
}

func BenchmarkFig2_UpdateMobile(b *testing.B)  { benchUpdate(b, device.Mobile) }
func BenchmarkFig3_UpdateDesktop(b *testing.B) { benchUpdate(b, device.Desktop) }

// --- Figure 4: concurrent multi-user updates ------------------------------

func BenchmarkFig4_MultiUser(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiUserExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Device == device.Mobile.Name {
				b.ReportMetric(r.Total.Seconds(), "mobile-total-s")
			}
		}
	}
}

// --- Figure 5: search performance ------------------------------------------

func BenchmarkFig5_Search(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SearchExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mie, hom float64
		for _, r := range rows {
			if r.Device != device.Desktop.Name {
				continue
			}
			switch r.Scheme {
			case experiments.SchemeMIE:
				mie = r.Total.Seconds()
			case experiments.SchemeHomMSSE:
				hom = r.Total.Seconds()
			}
		}
		b.ReportMetric(mie*1000, "mie-desktop-ms")
		if mie > 0 {
			b.ReportMetric(hom/mie, "hommsse-over-mie")
		}
	}
}

// --- Figure 6: mobile energy ------------------------------------------------

func BenchmarkFig6_Energy(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateExperiment(device.Mobile, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.N != cfg.Sizes[len(cfg.Sizes)-1] {
				continue
			}
			switch r.Scheme {
			case experiments.SchemeMIE:
				b.ReportMetric(r.EnergyAddMAh, "mie-add-mAh")
			case experiments.SchemeHomMSSE:
				b.ReportMetric(r.EnergyAddMAh, "hommsse-add-mAh")
				b.ReportMetric(r.EnergyTrainMAh, "hommsse-train-mAh")
			}
		}
	}
}

// --- Table III: retrieval precision ----------------------------------------

func BenchmarkTable3_MAP(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PrecisionExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.System {
			case experiments.SchemePlain:
				b.ReportMetric(r.MAP*100, "plaintext-mAP")
			case experiments.SchemeMIE:
				b.ReportMetric(r.MAP*100, "mie-mAP")
			}
		}
	}
}

// --- Micro-benchmarks: the primitives behind the figures -------------------

func benchKey() crypto.Key {
	var k crypto.Key
	k[0] = 1
	return k
}

func BenchmarkSparseDPEEncode(b *testing.B) {
	s := dpe.NewSparse(benchKey())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encode("keyword")
	}
}

func BenchmarkHammingDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := vec.NewBitVec(512), vec.NewBitVec(512)
	for i := 0; i < 512; i++ {
		x.Set(i, rng.Intn(2) == 1)
		y.Set(i, rng.Intn(2) == 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Hamming(x, y)
	}
}

func BenchmarkFeatureExtractImage(b *testing.B) {
	img := dataset.TopicImage(64, 0, 1)
	pyr := imaging.PyramidParams{Scales: []int{16, 32, 64}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.Extract(img, pyr)
	}
}

func BenchmarkFeatureExtractAudio(b *testing.B) {
	samples := make([]float64, audio.SampleRate/2)
	for i := range samples {
		at := float64(i) / audio.SampleRate
		samples[i] = math.Sin(2*math.Pi*440*at) + 0.5*math.Sin(2*math.Pi*880*at) + 0.25*math.Sin(2*math.Pi*1320*at)
	}
	clip := audio.NewClip(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audio.Extract(clip)
	}
}

func BenchmarkFeatureExtractText(b *testing.B) {
	const doc = "the quick brown foxes were jumping over several lazy dogs while photographers captured running animals"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text.Extract(doc)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	ix := index.New()
	terms := map[index.Term]uint64{"a": 1, "b": 2, "c": 3, "d": 1, "e": 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Add(index.DocID(fmt.Sprintf("d%d", i)), terms)
	}
}

func BenchmarkIndexSearch(b *testing.B) {
	ix := index.New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		terms := make(map[index.Term]uint64)
		for j := 0; j < 8; j++ {
			terms[index.Term(fmt.Sprintf("t%d", rng.Intn(1000)))] = uint64(1 + rng.Intn(5))
		}
		ix.Add(index.DocID(fmt.Sprintf("d%d", i)), terms)
	}
	query := index.SortedTerms(map[index.Term]uint64{"t1": 1, "t2": 2, "t3": 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(query, 20)
	}
}

func BenchmarkKMeansEuclidean(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = make([]float64, 16)
		for j := range points[i] {
			points[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, 10, cluster.Options{Seed: 5, MaxIter: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

var benchPaillier *paillier.PrivateKey

func paillierKey(b *testing.B) *paillier.PrivateKey {
	b.Helper()
	if benchPaillier == nil {
		sk, err := paillier.GenerateKey(nil, 1024)
		if err != nil {
			b.Fatal(err)
		}
		benchPaillier = sk
	}
	return benchPaillier
}

func BenchmarkPaillierEncrypt(b *testing.B) {
	sk := paillierKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.EncryptUint64(nil, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierAdd(b *testing.B) {
	sk := paillierKey(b)
	c1, err := sk.EncryptUint64(nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	c2, err := sk.EncryptUint64(nil, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Add(c1, c2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESCTREncrypt4KiB(b *testing.B) {
	c := crypto.NewCipher(benchKey())
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encrypt(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end per-operation benches ---------------------------------------

func benchMIEStack(b *testing.B, n int) (*Client, Repository) {
	b.Helper()
	ctx := context.Background()
	key := RepositoryKey{Master: benchKey()}
	client, err := NewClient(ClientConfig{
		Key:     key,
		Dense:   dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 512, Threshold: 0.5},
		Pyramid: imaging.PyramidParams{Scales: []int{16, 32}},
	})
	if err != nil {
		b.Fatal(err)
	}
	repo, err := Open(ctx, Options{
		Client: client,
		RepoID: "bench",
		Create: true,
		Repo:   RepositoryOptions{VocabWords: 50, VocabMaxIter: 10, TreeBranch: 4, TreeHeight: 2, TreeSeed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	dk := DataKey(benchKey())
	for _, obj := range dataset.Flickr(dataset.FlickrParams{N: n, ImageSize: 48, Seed: 1}) {
		if err := repo.Add(ctx, obj, dk); err != nil {
			b.Fatal(err)
		}
	}
	if err := repo.Train(ctx); err != nil {
		b.Fatal(err)
	}
	return client, repo
}

func BenchmarkMIEUpdateEndToEnd(b *testing.B) {
	_, repo := benchMIEStack(b, 50)
	objs := dataset.Flickr(dataset.FlickrParams{N: 1, ImageSize: 48, Seed: 9})
	dk := DataKey(benchKey())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objs[0].ID = fmt.Sprintf("new-%d", i)
		if err := repo.Add(context.Background(), objs[0], dk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMIESearchEndToEnd(b *testing.B) {
	_, repo := benchMIEStack(b, 100)
	query := dataset.Flickr(dataset.FlickrParams{N: 1, ImageSize: 48, Seed: 10})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Search(context.Background(), query, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §V-A: leakage-abuse attack -------------------------------------------

func BenchmarkAttack_Recovery(b *testing.B) {
	cfg := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AttackExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RecoveryRate*100, "recovery-at-10pct")
		b.ReportMetric(rows[len(rows)-1].RecoveryRate*100, "recovery-at-100pct")
	}
}
