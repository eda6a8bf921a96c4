package msse

import (
	"fmt"

	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/fusion"
	"mie/internal/index"
)

// plain is MSSE. Each modality's counters are one term -> counter dictionary
// the clients seal under rk1 and keep at the server; rk2 derives the
// per-keyword PRF key k1 and frequency key k2.
type plain struct{ rk2 crypto.Key }

// dictID is the only counter id plain uses: a modality's whole dictionary.
const dictID = ""

func (p plain) termKeys(term string) (k1, k2 crypto.Key) {
	return crypto.DeriveKey(p.rk2, term+"|1"), crypto.DeriveKey(p.rk2, term+"|2")
}

func (p plain) posting(term string, freq uint64) (crypto.Key, []byte, error) {
	k1, k2 := p.termKeys(term)
	sealed, err := crypto.NewCipher(k2).EncryptUint64(freq)
	return k1, sealed, err
}

func (p plain) trapdoor(term string) (crypto.Key, []byte) {
	k1, k2 := p.termKeys(term)
	return k1, k2[:]
}

// fetchDicts downloads and opens the dictionaries of hs's modalities.
func (p plain) fetchDicts(c *Client, l link, hs hists, advance bool) (counters, error) {
	req := CounterReq{Advance: advance, Refs: make(map[string][]CounterRef, len(hs))}
	for m := range hs {
		req.Refs[m] = nil
	}
	sealed, err := l.counters(req)
	if err != nil {
		return nil, err
	}
	dicts := make(counters, len(hs))
	c.timeCPU(device.Encrypt, func() {
		for m := range hs {
			dict := make(map[string]uint64)
			if err = c.decryptBlob(sealed[m][dictID], &dict); err != nil {
				err = fmt.Errorf("msse: decrypt ctrs: %w", err)
				return
			}
			dicts[m] = dict
		}
	})
	if err != nil && advance {
		err = l.abandon(err)
	}
	return dicts, err
}

// take reads the counter of every term of hist from dict and advances it.
func take(dict, hist map[string]uint64) map[string]uint64 {
	at := make(map[string]uint64, len(hist))
	for term := range hist {
		at[term] = dict[term]
		dict[term]++
	}
	return at
}

// advance is the counter fetch -> increment -> reseal dance of Figure 7: the
// fetch takes the repository's counter lock, the resealed dictionaries ride
// on the update, which gives it back.
func (p plain) advance(c *Client, l link, docID string, hs hists) (counters, []ModalityUpdate, error) {
	dicts, err := p.fetchDicts(c, l, hs, true)
	if err != nil {
		return nil, nil, err
	}
	at := make(counters, len(hs))
	var ups []ModalityUpdate
	c.timeCPU(device.Encrypt, func() {
		for _, m := range modalities(hs) {
			at[m] = take(dicts[m], hs[m])
			mu := ModalityUpdate{Modality: m}
			if mu.Postings, err = p.dummyPostings(docID, m, c.padCount(len(hs[m])), dicts[m]); err != nil {
				return
			}
			if mu.ECtrs, err = c.encryptBlob(dicts[m]); err != nil {
				return
			}
			ups = append(ups, mu)
		}
	})
	if err != nil {
		return nil, nil, l.abandon(err)
	}
	return at, ups, nil
}

// dummyPostings mints n index-padding entries: positions in a reserved
// dummy term space (counted through the same dictionary so padded updates
// stay consistent), dummy doc ids, encrypted zero frequencies. Queries never
// derive these positions, so padding is retrieval-invisible.
func (p plain) dummyPostings(docID, modality string, n int, dict map[string]uint64) ([]Posting, error) {
	out := make([]Posting, 0, n)
	for i := 0; i < n; i++ {
		term := fmt.Sprintf("\x00pad|%s|%d", modality, i)
		k1, sealed, err := p.posting(term, 0)
		if err != nil {
			return nil, err
		}
		// The dummy doc id never collides with real ids (NUL prefix).
		out = append(out, Posting{L: position(k1, dict[term]), Doc: "\x00dummy|" + docID, EncFreq: sealed})
		dict[term]++
	}
	return out, nil
}

// current reads the dictionaries; the server makes the read wait for a
// writer in progress and holds nothing afterwards (the paper: searches
// proceed on a snapshot).
func (p plain) current(c *Client, l link, hs hists) (counters, error) {
	return p.fetchDicts(c, l, hs, false)
}

// reindex starts both dictionaries from zero and indexes every object
// locally: the client owns the counters, so it needs the server for nothing
// but the final upload.
func (p plain) reindex(c *Client, _ link, docs map[string]featureBlob) ([]ModalityUpdate, error) {
	ups := []ModalityUpdate{{Modality: ModText}, {Modality: ModImage}}
	dicts := counters{ModText: {}, ModImage: {}}
	var err error
	c.timeCPU(device.Index, func() {
		for id, fb := range docs {
			hs := c.histograms(fb)
			for i := range ups {
				m := ups[i].Modality
				var ps []Posting
				if ps, err = c.postings(id, hs[m], take(dicts[m], hs[m])); err != nil {
					return
				}
				ups[i].Postings = append(ups[i].Postings, ps...)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	c.timeCPU(device.Encrypt, func() {
		for i := range ups {
			if ups[i].ECtrs, err = c.encryptBlob(dicts[ups[i].Modality]); err != nil {
				return
			}
		}
	})
	return ups, err
}

// serveCounters is CLOUD.GetCtrs: concurrent writers block here, the
// serialization point that MIE avoids.
func (plain) serveCounters(r *repo, req CounterReq) (CounterResp, error) {
	r.lock <- struct{}{}
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := make(CounterResp, len(req.Refs))
	for m := range req.Refs {
		resp[m] = map[string][]byte{dictID: r.ctrs[m][dictID]}
	}
	if req.Advance {
		r.locked = true
	} else {
		<-r.lock
	}
	return resp, nil
}

func (plain) release(r *repo) error {
	if !r.locked {
		return ErrNotLocked
	}
	r.locked = false
	<-r.lock
	return nil
}

func (plain) storeCounters(r *repo, ups []ModalityUpdate) {
	for _, mu := range ups {
		r.ctrs[mu.Modality] = map[string][]byte{dictID: mu.ECtrs}
	}
}

// score opens the frequencies with the k2 it was handed (the
// frequency-pattern leak), scores with TF-IDF, sorts per modality,
// rank-fuses and returns the top k with ciphertexts.
func (plain) score(r *repo, qs []ModalityQuery, k int) (SearchResp, error) {
	var lists [][]index.Result
	for _, mq := range qs {
		scores := make(map[index.DocID]float64)
		for _, st := range mq.Terms {
			k2, err := crypto.KeyFromBytes(st.K2)
			if err != nil {
				return SearchResp{}, fmt.Errorf("msse: bad k2: %w", err)
			}
			ciph := crypto.NewCipher(k2)
			found, idf := r.matches(mq.Modality, st)
			for _, e := range found {
				freq, err := ciph.DecryptUint64(e.encFreq)
				if err != nil {
					return SearchResp{}, fmt.Errorf("msse: decrypt freq of %s: %w", e.doc, err)
				}
				scores[index.DocID(e.doc)] += float64(st.QueryFreq) * float64(freq) * idf
			}
		}
		list := make([]index.Result, 0, len(scores))
		for d, sc := range scores {
			if sc > 0 {
				list = append(list, index.Result{Doc: d, Score: sc})
			}
		}
		index.SortResults(list)
		lists = append(lists, list)
	}
	var resp SearchResp
	for _, res := range fusion.Fuse(fusion.LogISR, lists, k) {
		if _, ok := r.objects[string(res.Doc)]; ok {
			resp.Hits = append(resp.Hits, r.hit(string(res.Doc), res.Score))
		}
	}
	return resp, nil
}

func (plain) rank(_ *Client, resp SearchResp, _ int) ([]Hit, error) { return resp.Hits, nil }
