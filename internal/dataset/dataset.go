// Package dataset generates the synthetic workloads that stand in for the
// paper's datasets:
//
//   - Flickr: a MIR-Flickr-like multimodal corpus — procedurally textured
//     images with correlated, Zipf-distributed user tags, organized around
//     latent topics. Used by the update/search/energy experiments
//     (Figures 2-6), which sweep corpus size, not content.
//   - Holidays: an INRIA-Holidays-like retrieval benchmark — groups of
//     near-duplicate images (a base photo plus perturbed variants), where
//     each group's first image queries for the rest. Used by the retrieval
//     precision experiment (Table III).
//
// Both are fully deterministic given their seed, so every experiment is
// reproducible bit-for-bit.
package dataset

import (
	"fmt"
	"math/rand"

	"mie/internal/core"
	"mie/internal/imaging"
)

// topicWords is the per-topic tag vocabulary; tags within a topic co-occur,
// mimicking Flickr's user tagging.
var topicWords = [][]string{
	{"beach", "sand", "ocean", "waves", "surf", "sunny", "holiday", "palm", "coast", "tropical"},
	{"mountain", "snow", "hiking", "trail", "peak", "climbing", "alpine", "summit", "glacier", "ridge"},
	{"city", "skyline", "building", "night", "lights", "urban", "street", "traffic", "downtown", "bridge"},
	{"forest", "trees", "green", "nature", "moss", "river", "wildlife", "leaves", "trail", "mist"},
	{"portrait", "face", "smile", "family", "friends", "party", "wedding", "celebration", "people", "candid"},
	{"food", "dinner", "restaurant", "delicious", "recipe", "kitchen", "dessert", "coffee", "breakfast", "wine"},
	{"sunset", "sky", "clouds", "golden", "horizon", "dusk", "evening", "silhouette", "orange", "reflection"},
	{"winter", "ice", "frost", "cold", "snowfall", "frozen", "january", "blizzard", "skating", "sled"},
}

// commonWords are topic-independent tags sprinkled across all objects.
var commonWords = []string{
	"photo", "camera", "travel", "2016", "trip", "canon", "nikon", "flickr",
	"explore", "color", "light", "day", "new", "old", "big", "small",
}

// tagsPerObject is the mean tag count of a generated object.
const tagsPerObject = 6

// FlickrParams configures the multimodal corpus generator.
type FlickrParams struct {
	// N is the number of objects (the 1000/2000/3000 sweep of the figures).
	N int
	// ImageSize is the square image side; 0 defaults to 64.
	ImageSize int
	// Seed drives all randomness.
	Seed int64
	// Owner stamps the generated objects; empty defaults to "user1".
	Owner string
}

// Flickr generates a deterministic multimodal corpus.
func Flickr(p FlickrParams) []*core.Object {
	if p.ImageSize == 0 {
		p.ImageSize = 64
	}
	if p.Owner == "" {
		p.Owner = "user1"
	}
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(commonWords)-1))
	objs := make([]*core.Object, 0, p.N)
	for i := 0; i < p.N; i++ {
		topic := i % len(topicWords)
		tags := sampleTags(rng, zipf, topic, tagsPerObject)
		img := TopicImage(p.ImageSize, topic, rng.Int63())
		objs = append(objs, &core.Object{
			ID:    fmt.Sprintf("flickr-%06d", i),
			Owner: p.Owner,
			Text:  tags,
			Image: img,
		})
	}
	return objs
}

// sampleTags draws topic tags plus Zipf-distributed common tags.
func sampleTags(rng *rand.Rand, zipf *rand.Zipf, topic, mean int) string {
	words := topicWords[topic]
	n := mean/2 + rng.Intn(mean)
	if n < 2 {
		n = 2
	}
	out := ""
	for j := 0; j < n; j++ {
		var w string
		if rng.Float64() < 0.7 {
			w = words[rng.Intn(len(words))]
		} else {
			w = commonWords[zipf.Uint64()]
		}
		if out != "" {
			out += " "
		}
		out += w
	}
	return out
}

// TopicImage renders a procedural image whose texture statistics depend on
// the topic (shared base pattern) with per-instance noise, giving the
// descriptor pipeline real same-class/different-class structure.
func TopicImage(size, topic int, instanceSeed int64) *imaging.Image {
	im, err := imaging.NewImage(size, size)
	if err != nil {
		panic(fmt.Sprintf("dataset: image size %d: %v", size, err))
	}
	base := rand.New(rand.NewSource(int64(topic)*104729 + 17))
	inst := rand.New(rand.NewSource(instanceSeed))
	// Topic-specific layered pattern: a handful of soft rectangles and
	// gradients whose geometry is fixed per topic.
	type blob struct{ x, y, w, h, v float64 }
	blobs := make([]blob, 6)
	for i := range blobs {
		blobs[i] = blob{
			x: base.Float64() * float64(size),
			y: base.Float64() * float64(size),
			w: (0.1 + base.Float64()*0.4) * float64(size),
			h: (0.1 + base.Float64()*0.4) * float64(size),
			v: base.Float64(),
		}
	}
	gx, gy := base.Float64()-0.5, base.Float64()-0.5
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := 0.5 + gx*float64(x)/float64(size) + gy*float64(y)/float64(size)
			for _, b := range blobs {
				if float64(x) >= b.x && float64(x) < b.x+b.w && float64(y) >= b.y && float64(y) < b.y+b.h {
					v = 0.7*v + 0.3*b.v
				}
			}
			v += (inst.Float64() - 0.5) * 0.15
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			im.Set(x, y, v)
		}
	}
	return im
}

// HolidaysParams configures the retrieval benchmark generator.
type HolidaysParams struct {
	// Groups is the number of near-duplicate scenes (the real Holidays has
	// 500 groups over 1491 photos).
	Groups int
	// PerGroup is the images per scene including the query; 0 defaults to 3.
	PerGroup int
	// ImageSize is the square image side; 0 defaults to 64.
	ImageSize int
	// Seed drives all randomness.
	Seed int64
}

// QuerySpec pairs a query object with the ids of its relevant results.
type QuerySpec struct {
	Query    *core.Object
	Relevant []string
}

// HolidaysSet is a generated retrieval benchmark.
type HolidaysSet struct {
	// Objects is the indexed corpus (queries are NOT included, matching the
	// Holidays protocol where the query is excluded from its own ranking).
	Objects []*core.Object
	// Queries holds one query per group with its ground truth.
	Queries []QuerySpec
}

// Holidays generates a deterministic near-duplicate retrieval benchmark.
func Holidays(p HolidaysParams) *HolidaysSet {
	if p.PerGroup == 0 {
		p.PerGroup = 3
	}
	if p.ImageSize == 0 {
		p.ImageSize = 64
	}
	rng := rand.New(rand.NewSource(p.Seed))
	set := &HolidaysSet{}
	for g := 0; g < p.Groups; g++ {
		base := sceneImage(p.ImageSize, rng.Int63())
		queryImg := perturb(base, rng.Int63(), 0.03)
		var relevant []string
		for v := 1; v < p.PerGroup; v++ {
			id := fmt.Sprintf("holiday-g%03d-v%d", g, v)
			set.Objects = append(set.Objects, &core.Object{
				ID:    id,
				Owner: "curator",
				Image: perturb(base, rng.Int63(), 0.06),
			})
			relevant = append(relevant, id)
		}
		set.Queries = append(set.Queries, QuerySpec{
			Query:    &core.Object{ID: fmt.Sprintf("holiday-q%03d", g), Image: queryImg},
			Relevant: relevant,
		})
	}
	return set
}

// sceneImage renders one unique scene.
func sceneImage(size int, seed int64) *imaging.Image {
	return TopicImage(size, int(seed%100000), seed)
}

// perturb returns a noisy, brightness-shifted, slightly translated copy —
// the photometric/geometric variation between shots of one holiday scene.
func perturb(src *imaging.Image, seed int64, noise float64) *imaging.Image {
	rng := rand.New(rand.NewSource(seed))
	dst, err := imaging.NewImage(src.W, src.H)
	if err != nil {
		panic(fmt.Sprintf("dataset: perturb: %v", err))
	}
	dx := rng.Intn(3) - 1
	dy := rng.Intn(3) - 1
	bright := (rng.Float64() - 0.5) * 0.1
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			v := src.At(x+dx, y+dy) + bright + (rng.Float64()-0.5)*noise*2
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			dst.Set(x, y, v)
		}
	}
	return dst
}

// SyntheticTextParams configures SyntheticText.
type SyntheticTextParams struct {
	// N is the number of documents.
	N int
	// VocabSize is the number of distinct words the Zipf source can emit;
	// 0 defaults to 2000. Large vocabularies create the long tail of
	// singleton keywords that makes leakage-abuse attacks hard.
	VocabSize int
	// WordsPerDoc is the mean document length; 0 defaults to 12.
	WordsPerDoc int
	// Seed drives all randomness.
	Seed int64
}

// SyntheticText generates text-only documents over a large Zipf-distributed
// vocabulary — the workload for the leakage-abuse attack experiment, whose
// outcome depends on vocabulary statistics rather than topical structure.
func SyntheticText(p SyntheticTextParams) []*core.Object {
	if p.VocabSize == 0 {
		p.VocabSize = 2000
	}
	if p.WordsPerDoc == 0 {
		p.WordsPerDoc = 12
	}
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, 1.2, 2.0, uint64(p.VocabSize-1))
	objs := make([]*core.Object, 0, p.N)
	for i := 0; i < p.N; i++ {
		n := p.WordsPerDoc/2 + rng.Intn(p.WordsPerDoc)
		if n < 3 {
			n = 3
		}
		body := ""
		for j := 0; j < n; j++ {
			if body != "" {
				body += " "
			}
			body += fmt.Sprintf("word%04d", zipf.Uint64())
		}
		objs = append(objs, &core.Object{
			ID:    fmt.Sprintf("text-%06d", i),
			Owner: "user1",
			Text:  body,
		})
	}
	return objs
}
