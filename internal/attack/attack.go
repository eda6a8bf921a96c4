// Package attack makes the paper's security discussion (§V-A) executable:
// it implements the passive leakage-abuse adversary — an honest-but-curious
// server holding partial *document knowledge* — against MIE's update
// leakage, and measures keyword-recovery rates as a function of how much of
// the corpus the adversary already knows.
//
// The paper's point, quantified by Cash et al.'s leakage-abuse analysis, is
// that such attacks demand almost complete document knowledge: ~95% known
// documents for ~58% query recovery, dropping toward 0% at 75%. The
// experiment in internal/experiments reproduces that cliff on this
// implementation: recovery stays negligible until the adversary knows close
// to everything.
//
// Attack model. For each update the server observed ID(d) plus the token
// ids and frequencies (MIE's update leakage), and it logged exactly those
// bytes: Recorder decodes them from the durable record stream. For documents the adversary
// *knows in plaintext*, it can line up each document's keyword-frequency
// multiset against the observed token-frequency multiset: a keyword can map
// to a token only if their frequency signatures agree on every known
// document (including absence). A keyword is recovered when exactly one
// token matches its signature.
package attack

import "mie/internal/dpe"

// KnownDoc is one plaintext document in the adversary's background
// knowledge: its id and its keyword-frequency histogram (post-stemming, the
// same representation the client indexed).
type KnownDoc struct {
	DocID    string
	Keywords map[string]uint64
}

// Recovery is the attack outcome.
type Recovery struct {
	// Mapping holds the keyword -> token assignments the adversary committed
	// to (unique signature matches only).
	Mapping map[string]dpe.Token
	// CandidateCounts records, per keyword, how many tokens remained
	// plausible; keywords with count 1 are in Mapping.
	CandidateCounts map[string]int
}

// RecoverKeywords runs the frequency-signature attack: observations are the
// server's update leakage (a Recorder's), known the adversary's plaintext
// documents.
func RecoverKeywords(observations []Observation, known []KnownDoc) *Recovery {
	// Index observations of known docs (latest wins, as on the server).
	obsByDoc := make(map[string]map[dpe.Token]uint64, len(observations))
	for _, o := range observations {
		obsByDoc[o.ObjectID] = o.Tokens
	}
	// Signature = the frequency vector over the adversary's known docs.
	type sig string
	sigOf := func(freqs []uint64) sig {
		b := make([]byte, 0, len(freqs)*3)
		for _, f := range freqs {
			for f >= 255 {
				b = append(b, 255)
				f -= 255
			}
			b = append(b, byte(f), 0xFF)
		}
		return sig(b)
	}

	// Token signatures over known docs — only tokens that appear in at
	// least one known doc are attackable.
	tokenSigs := make(map[dpe.Token][]uint64)
	for i, kd := range known {
		for tok, f := range obsByDoc[kd.DocID] {
			v, ok := tokenSigs[tok]
			if !ok {
				v = make([]uint64, len(known))
			}
			v[i] = f
			tokenSigs[tok] = v
		}
	}
	bySig := make(map[sig][]dpe.Token, len(tokenSigs))
	for tok, v := range tokenSigs {
		s := sigOf(v)
		bySig[s] = append(bySig[s], tok)
	}

	// Keyword signatures over the same docs.
	keywordSigs := make(map[string][]uint64)
	for i, kd := range known {
		for w, f := range kd.Keywords {
			v, ok := keywordSigs[w]
			if !ok {
				v = make([]uint64, len(known))
			}
			v[i] = f
			keywordSigs[w] = v
		}
	}

	rec := &Recovery{
		Mapping:         make(map[string]dpe.Token),
		CandidateCounts: make(map[string]int),
	}
	for w, v := range keywordSigs {
		cands := bySig[sigOf(v)]
		rec.CandidateCounts[w] = len(cands)
		if len(cands) == 1 {
			rec.Mapping[w] = cands[0]
		}
	}
	return rec
}

// Evaluate scores a recovery against the true keyword->token mapping over
// the full corpus vocabulary: the fraction of all distinct corpus keywords
// the adversary correctly resolved (the query-recovery rate of §V-A).
func Evaluate(rec *Recovery, truth map[string]dpe.Token) (rate float64, correct, total int) {
	total = len(truth)
	if total == 0 {
		return 0, 0, 0
	}
	for w, tok := range rec.Mapping {
		if truth[w] == tok {
			correct++
		}
	}
	return float64(correct) / float64(total), correct, total
}
