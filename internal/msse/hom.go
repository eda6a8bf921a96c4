package msse

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/big"

	"mie/internal/crypto"
	"mie/internal/device"
	"mie/internal/fusion"
	"mie/internal/index"
	"mie/internal/paillier"
)

// hom is Hom-MSSE. Every term has its own counter, a Paillier ciphertext
// the server keeps under the term's PRF id and advances homomorphically;
// frequencies are Paillier ciphertexts too. The server's copy has pub only.
type hom struct {
	rkid crypto.Key
	pub  *paillier.PublicKey
	priv *paillier.PrivateKey
}

// scoreScale converts the float weight freqq*idf into the integer domain
// Paillier works in; the client divides it back out after decryption.
const scoreScale = 1000

// termID is the deterministic per-term id the server keys counters by.
func (h hom) termID(term string) string {
	return hex.EncodeToString(crypto.PRFString(h.rkid, term+"|id"))
}

func (h hom) posKey(term string) crypto.Key { return crypto.DeriveKey(h.rkid, term+"|pos") }

func (h hom) posting(term string, freq uint64) (crypto.Key, []byte, error) {
	sealed, err := h.pub.EncryptUint64(nil, freq)
	if err != nil {
		return crypto.Key{}, nil, err
	}
	return h.posKey(term), sealed.Bytes(), nil
}

func (h hom) trapdoor(term string) (crypto.Key, []byte) { return h.posKey(term), nil }

// fetch asks the server for the counter of every term in hs and opens the
// answers. An advancing fetch sends an encrypted 1 with every term and, when
// padded, encrypted zeros on dummy ids so the server cannot tell which
// counters really advanced; the server adds them after reading, atomically,
// so concurrent writers never see the same value — no lock round trip.
func (h hom) fetch(c *Client, l link, docID string, hs hists, advance, padded bool) (counters, error) {
	req := CounterReq{Advance: advance, Refs: make(map[string][]CounterRef, len(hs))}
	var err error
	ref := func(term string, inc uint64) (CounterRef, error) {
		r := CounterRef{ID: h.termID(term)}
		if advance {
			enc, err := h.pub.EncryptUint64(nil, inc)
			if err != nil {
				return r, err
			}
			r.EncInc = enc.Bytes()
		}
		return r, nil
	}
	c.timeCPU(device.Encrypt, func() {
		for m, hist := range hs {
			refs := make([]CounterRef, 0, len(hist))
			for term := range hist {
				var r CounterRef
				if r, err = ref(term, 1); err != nil {
					return
				}
				refs = append(refs, r)
			}
			for i := 0; padded && i < c.padCount(len(hist)); i++ {
				var r CounterRef
				if r, err = ref(fmt.Sprintf("pad|%s|%s|%d", docID, m, i), 0); err != nil {
					return
				}
				refs = append(refs, r)
			}
			req.Refs[m] = refs
		}
	})
	if err != nil {
		return nil, err
	}
	sealed, err := l.counters(req)
	if err != nil {
		return nil, err
	}
	ctrs := make(counters, len(hs))
	c.timeCPU(device.Encrypt, func() {
		for m, hist := range hs {
			ctrs[m] = make(map[string]uint64, len(hist))
			for term := range hist {
				ct, ok := sealed[m][h.termID(term)]
				if !ok {
					if advance {
						err = fmt.Errorf("msse: server did not return counter for %s", h.termID(term))
						return
					}
					continue // never indexed
				}
				if ctrs[m][term], err = h.priv.DecryptUint64(new(big.Int).SetBytes(ct)); err != nil {
					err = fmt.Errorf("msse: decrypt counter: %w", err)
					return
				}
			}
		}
	})
	return ctrs, err
}

func (h hom) advance(c *Client, l link, docID string, hs hists) (counters, []ModalityUpdate, error) {
	at, err := h.fetch(c, l, docID, hs, true, true)
	if err != nil {
		return nil, nil, err
	}
	var ups []ModalityUpdate
	for _, m := range modalities(hs) {
		ups = append(ups, ModalityUpdate{Modality: m})
	}
	return at, ups, nil
}

func (h hom) current(c *Client, l link, hs hists) (counters, error) {
	return h.fetch(c, l, "", hs, false, false)
}

// reindex advances the counters through the server one object at a time,
// unpadded: only the server can hand out counter values.
func (h hom) reindex(c *Client, l link, docs map[string]featureBlob) ([]ModalityUpdate, error) {
	ups := []ModalityUpdate{{Modality: ModText}, {Modality: ModImage}}
	for id, fb := range docs {
		var hs hists
		c.timeCPU(device.Index, func() { hs = c.histograms(fb) })
		at, err := h.fetch(c, l, id, hs, true, false)
		if err != nil {
			return nil, err
		}
		c.timeCPU(device.Encrypt, func() {
			for i := range ups {
				m := ups[i].Modality
				var ps []Posting
				if ps, err = c.postings(id, hs[m], at[m]); err != nil {
					return
				}
				ups[i].Postings = append(ups[i].Postings, ps...)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return ups, nil
}

// serveCounters is CLOUD.GetAndIncCtrs when req advances — each counter's
// current value is returned and then the sealed amount added to it, absent
// counters starting from E(0) — and the read-only CLOUD.GetCtrs otherwise.
func (h hom) serveCounters(r *repo, req CounterReq) (CounterResp, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := make(CounterResp, len(req.Refs))
	for m, refs := range req.Refs {
		if r.ctrs[m] == nil {
			r.ctrs[m] = make(map[string][]byte)
		}
		resp[m] = make(map[string][]byte, len(refs))
		for _, ref := range refs {
			cur, ok := r.ctrs[m][ref.ID]
			if !ok && req.Advance {
				zero, err := h.pub.EncryptUint64(nil, 0)
				if err != nil {
					return nil, fmt.Errorf("msse: init counter: %w", err)
				}
				cur, ok = zero.Bytes(), true
			}
			if !ok {
				continue
			}
			resp[m][ref.ID] = cur
			if req.Advance {
				sum, err := h.pub.Add(new(big.Int).SetBytes(cur), new(big.Int).SetBytes(ref.EncInc))
				if err != nil {
					return nil, fmt.Errorf("msse: increment counter %s: %w", ref.ID, err)
				}
				r.ctrs[m][ref.ID] = sum.Bytes()
			}
		}
	}
	return resp, nil
}

func (hom) release(*repo) error { return nil }

func (hom) storeCounters(*repo, []ModalityUpdate) {}

// score runs the homomorphic scoring of Figure 8: for each query term the
// server gathers the candidate postings, derives the public weight
// round(scoreScale·freqq·idf), multiplies it into each encrypted frequency
// (HomMult) and accumulates per-document encrypted scores (HomAdd). It
// returns every candidate with its encrypted score and ciphertext; ranking
// happens client-side.
func (h hom) score(r *repo, qs []ModalityQuery, _ int) (SearchResp, error) {
	resp := SearchResp{Scored: make(map[string][]DocScore, len(qs))}
	for _, mq := range qs {
		scores := make(map[string]*big.Int)
		for _, st := range mq.Terms {
			found, idf := r.matches(mq.Modality, st)
			weight := int64(math.Round(scoreScale * float64(st.QueryFreq) * idf))
			if weight == 0 {
				continue
			}
			for _, e := range found {
				scaled, err := h.pub.ScalarMul(new(big.Int).SetBytes(e.encFreq), big.NewInt(weight))
				if err != nil {
					return SearchResp{}, fmt.Errorf("msse: HomMult: %w", err)
				}
				if acc, ok := scores[e.doc]; ok {
					if scaled, err = h.pub.Add(acc, scaled); err != nil {
						return SearchResp{}, fmt.Errorf("msse: HomAdd: %w", err)
					}
				}
				scores[e.doc] = scaled
			}
		}
		list := make([]DocScore, 0, len(scores))
		for doc, enc := range scores {
			if o, ok := r.objects[doc]; ok {
				list = append(list, DocScore{Doc: doc, Owner: o.Owner, EncScore: enc.Bytes(), Cipher: o.Ciphertext})
			}
		}
		resp.Scored[mq.Modality] = list
	}
	return resp, nil
}

// rank is the client-side decrypt + per-modality sort + fusion (the extra
// client work Figure 5 charges to Hom-MSSE).
func (h hom) rank(c *Client, resp SearchResp, k int) ([]Hit, error) {
	var lists [][]index.Result
	meta := make(map[string]Hit)
	var err error
	c.timeCPU(device.Encrypt, func() {
		for _, list := range resp.Scored {
			var rs []index.Result
			for _, ds := range list {
				var raw *big.Int
				if raw, err = h.priv.Decrypt(new(big.Int).SetBytes(ds.EncScore)); err != nil {
					return
				}
				if score := float64(raw.Int64()) / scoreScale; score > 0 {
					rs = append(rs, index.Result{Doc: index.DocID(ds.Doc), Score: score})
					meta[ds.Doc] = Hit{Doc: ds.Doc, Owner: ds.Owner, Ciphertext: ds.Cipher}
				}
			}
			index.SortResults(rs)
			lists = append(lists, rs)
		}
	})
	if err != nil {
		return nil, err
	}
	fused := fusion.Fuse(fusion.LogISR, lists, k)
	hits := make([]Hit, 0, len(fused))
	for _, r := range fused {
		hit := meta[string(r.Doc)]
		hit.Score = r.Score
		hits = append(hits, hit)
	}
	return hits, nil
}
