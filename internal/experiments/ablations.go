package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"mie/internal/core"
	"mie/internal/crypto"
	"mie/internal/dataset"
	"mie/internal/dpe"
	"mie/internal/eval"
	"mie/internal/fusion"
	"mie/internal/imaging"
	"mie/internal/index"
	"mie/internal/text"
)

// The ablations quantify the design choices DESIGN.md calls out:
//
//  1. Dense-DPE output size M — encoding noise vs retrieval precision
//     (the paper: precision holds "as long as encoded features are at
//     least as large as their plaintext versions").
//  2. Dense-DPE threshold t — the security/utility dial of Definition 1.
//  3. Server-side Hamming k-means over encodings vs client-side Euclidean
//     k-means over plaintexts (what outsourcing training costs in mAP).
//  4. Champion posting-list size R — memory bound vs precision/latency.
//  5. Rank-fusion method — LogISR (the paper's choice) vs ISR vs RRF.

// AblationRow is one measured configuration of one ablation.
type AblationRow struct {
	Ablation string
	Setting  string
	MAP      float64
	Latency  time.Duration
}

// mieMAPWithParams builds a MIE pipeline with explicit DPE params over the
// Holidays benchmark and returns its mAP.
func mieMAPWithParams(cfg Config, set *dataset.HolidaysSet, dense dpe.DenseParams, repoID string) (float64, error) {
	client, err := core.NewClient(core.ClientConfig{
		Key:     core.RepositoryKey{Master: masterKey(1)},
		Dense:   dense,
		Pyramid: cfg.pyramid(),
	})
	if err != nil {
		return 0, err
	}
	repo, err := core.NewRepository(repoID, core.RepositoryOptions{Vocab: cfg.vocab()})
	if err != nil {
		return 0, err
	}
	for _, obj := range set.Objects {
		up, err := client.PrepareUpdate(obj, dataKey())
		if err != nil {
			return 0, err
		}
		if err := repo.Update(up); err != nil {
			return 0, err
		}
	}
	if err := repo.Train(); err != nil {
		return 0, err
	}
	k := len(set.Objects)
	ranks := make([][]string, len(set.Queries))
	truths := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		truths[i] = q.Relevant
		query, err := client.PrepareQuery(q.Query, k)
		if err != nil {
			return 0, err
		}
		hits, err := repo.Search(query)
		if err != nil {
			return 0, err
		}
		ids := make([]string, len(hits))
		for j, h := range hits {
			ids[j] = h.ObjectID
		}
		ranks[i] = ids
	}
	return eval.MeanAveragePrecision(ranks, truths)
}

// AblationEncodingSize sweeps Dense-DPE's output size M.
func AblationEncodingSize(cfg Config) ([]AblationRow, error) {
	set := dataset.Holidays(dataset.HolidaysParams{
		Groups: cfg.HolidayGroups, PerGroup: cfg.HolidayPerGroup,
		ImageSize: cfg.ImageSize, Seed: cfg.Seed,
	})
	var rows []AblationRow
	for _, m := range []int{128, 512, 2048, 4096} {
		start := time.Now()
		mAP, err := mieMAPWithParams(cfg, set,
			dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: m, Threshold: 0.5},
			fmt.Sprintf("abl-m-%d", m))
		if err != nil {
			return nil, fmt.Errorf("ablation M=%d: %w", m, err)
		}
		rows = append(rows, AblationRow{
			Ablation: "encoding-size",
			Setting:  fmt.Sprintf("M=%d bits", m),
			MAP:      mAP,
			Latency:  time.Since(start),
		})
	}
	return rows, nil
}

// AblationThreshold sweeps Dense-DPE's distance threshold t: small t leaks
// less (distances hidden sooner) but erases the structure clustering needs.
func AblationThreshold(cfg Config) ([]AblationRow, error) {
	set := dataset.Holidays(dataset.HolidaysParams{
		Groups: cfg.HolidayGroups, PerGroup: cfg.HolidayPerGroup,
		ImageSize: cfg.ImageSize, Seed: cfg.Seed,
	})
	var rows []AblationRow
	for _, t := range []float64{0.2, 0.35, 0.5, 0.7, 1.0} {
		mAP, err := mieMAPWithParams(cfg, set,
			dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: t},
			fmt.Sprintf("abl-t-%v", t))
		if err != nil {
			return nil, fmt.Errorf("ablation t=%v: %w", t, err)
		}
		rows = append(rows, AblationRow{
			Ablation: "threshold",
			Setting:  fmt.Sprintf("t=%.2f", t),
			MAP:      mAP,
		})
	}
	return rows, nil
}

// AblationTrainingSpace compares MIE's server-side Hamming k-means over
// encodings against the plaintext Euclidean pipeline on identical data —
// the retrieval price of outsourcing training.
func AblationTrainingSpace(cfg Config) ([]AblationRow, error) {
	set := dataset.Holidays(dataset.HolidaysParams{
		Groups: cfg.HolidayGroups, PerGroup: cfg.HolidayPerGroup,
		ImageSize: cfg.ImageSize, Seed: cfg.Seed,
	})
	k := len(set.Objects)
	truths := make([][]string, len(set.Queries))
	for i, q := range set.Queries {
		truths[i] = q.Relevant
	}
	plainRanks, err := plaintextRankings(cfg, set, k)
	if err != nil {
		return nil, err
	}
	plainMAP, err := eval.MeanAveragePrecision(plainRanks, truths)
	if err != nil {
		return nil, err
	}
	hamMAP, err := mieMAPWithParams(cfg, set,
		dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 2048, Threshold: 0.5},
		"abl-space-hamming")
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Ablation: "training-space", Setting: "Euclidean on plaintexts (client-side)", MAP: plainMAP},
		{Ablation: "training-space", Setting: "Hamming on DPE encodings (cloud-side)", MAP: hamMAP},
	}, nil
}

// AblationChampionSize sweeps the champion posting-list bound R of §VI on a
// text corpus: a search scans only the R postings of each term with the
// highest term frequency, while document frequency still counts every
// posting. It reports precision@10 against the unbounded index and the
// latency of the scoring pass. The engine's index keeps every posting, so the
// champion lists are built here, in memory, once per R.
func AblationChampionSize(cfg Config) ([]AblationRow, error) {
	corpus := dataset.Flickr(dataset.FlickrParams{N: cfg.SearchRepoSize * 2, ImageSize: cfg.ImageSize, Seed: cfg.Seed})
	sparse := dpe.NewSparse(crypto.DeriveKey(masterKey(1), "abl"))
	docs := make(map[index.DocID]map[index.Term]uint64, len(corpus))
	for _, obj := range corpus {
		docs[index.DocID(obj.ID)] = tokenize(sparse, obj.Text)
	}
	query := tokenize(sparse, "beach ocean holiday sunny travel photo")

	// Reference: unbounded index.
	ref := index.New()
	for id, terms := range docs {
		if err := ref.Add(id, terms); err != nil {
			return nil, err
		}
	}
	refIDs := resultIDs(ref.Search(query, 10))

	// Every term's postings, best first: term frequency descending, then
	// DocID descending. A champion list of size R is a prefix.
	type posting struct {
		doc index.DocID
		tf  uint64
	}
	postings := make(map[index.Term][]posting)
	for id, terms := range docs {
		for term, tf := range terms {
			postings[term] = append(postings[term], posting{id, tf})
		}
	}
	for _, pl := range postings {
		slices.SortFunc(pl, func(a, b posting) int {
			if c := cmp.Compare(b.tf, a.tf); c != 0 {
				return c
			}
			return cmp.Compare(b.doc, a.doc)
		})
	}
	terms := make([]index.Term, 0, len(query))
	for term := range query {
		terms = append(terms, term)
	}
	slices.Sort(terms) // one order of additions per score, as in the index

	var rows []AblationRow
	for _, champ := range []int{5, 20, 50, 200} {
		champions := make(map[index.Term][]posting, len(postings))
		for term, pl := range postings {
			champions[term] = pl[:min(champ, len(pl))]
		}
		start := time.Now()
		scores := make(map[index.DocID]float64)
		for _, term := range terms {
			qf, df := float64(query[term]), len(postings[term])
			for _, p := range champions[term] {
				scores[p.doc] += qf * text.TFIDF(p.tf, len(docs), df)
			}
		}
		top := index.TopK(scores, 10)
		lat := time.Since(start)
		rows = append(rows, AblationRow{
			Ablation: "champion-size",
			Setting:  "R=" + strconv.Itoa(champ),
			MAP:      eval.PrecisionAtK(resultIDs(top), refIDs, 10),
			Latency:  lat,
		})
	}
	return rows, nil
}

// resultIDs returns the documents of a ranking, in order.
func resultIDs(rs []index.Result) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = string(r.Doc)
	}
	return ids
}

func tokenize(sparse *dpe.Sparse, s string) map[index.Term]uint64 {
	out := make(map[index.Term]uint64)
	for _, w := range splitWords(s) {
		out[index.Term(sparse.Encode(w).String())]++
	}
	return out
}

func splitWords(s string) []string {
	var out []string
	word := ""
	for _, r := range s {
		if r == ' ' {
			if word != "" {
				out = append(out, word)
			}
			word = ""
			continue
		}
		word += string(r)
	}
	if word != "" {
		out = append(out, word)
	}
	return out
}

// AblationFusion compares the three fusion formulas on the multimodal
// Flickr corpus: same per-modality rankings, different merge.
func AblationFusion(cfg Config) ([]AblationRow, error) {
	stack, err := newMIE(cfg, nil, "abl-fusion")
	if err != nil {
		return nil, err
	}
	corpus := dataset.Flickr(dataset.FlickrParams{N: cfg.SearchRepoSize, ImageSize: cfg.ImageSize, Seed: cfg.Seed})
	for _, obj := range corpus {
		if err := stack.add(obj); err != nil {
			return nil, err
		}
	}
	if err := stack.repo.Train(); err != nil {
		return nil, err
	}
	// Relevance proxy: objects of the query's topic (same generator class).
	queryTopic := 0
	var relevant []string
	for i, obj := range corpus {
		if i%8 == queryTopic {
			relevant = append(relevant, obj.ID)
		}
	}
	queryObj := dataset.Flickr(dataset.FlickrParams{N: 1, ImageSize: cfg.ImageSize, Seed: cfg.Seed + 31})[0]
	q, err := stack.client.PrepareQuery(queryObj, cfg.SearchRepoSize)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, m := range []struct {
		name   string
		method fusion.Method
	}{
		{"LogISR (paper)", fusion.LogISR},
		{"ISR", fusion.ISR},
		{"RRF", fusion.RRF},
	} {
		hits, err := stack.repo.SearchWithFusion(q, m.method)
		if err != nil {
			return nil, err
		}
		ids := make([]string, len(hits))
		for i, h := range hits {
			ids[i] = h.ObjectID
		}
		rows = append(rows, AblationRow{
			Ablation: "fusion",
			Setting:  m.name,
			MAP:      eval.AveragePrecision(ids, relevant),
		})
	}
	return rows, nil
}

// WriteAblationReport prints ablation rows.
func WriteAblationReport(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "== Ablation: %s ==\n", title)
	for _, r := range rows {
		if r.Latency > 0 {
			fmt.Fprintf(w, "  %-40s quality=%.4f latency=%v\n", r.Setting, r.MAP, r.Latency.Round(time.Microsecond))
		} else {
			fmt.Fprintf(w, "  %-40s quality=%.4f\n", r.Setting, r.MAP)
		}
	}
}
