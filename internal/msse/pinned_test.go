package msse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// pinnedRankings is the SHA-256 over every line pinScenario produces for
// both schemes, taken at commit f1c4631 from the two separate packages the
// schemes then lived in: whatever is refactored here, the ranked ids do not
// move.
const pinnedRankings = "8f814a2a459b593239a8907d535fb805659fdbe60bbb5de09d0ca29fd5f1d896"

// pinScenario drives one scheme through a seeded corpus — untrained with an
// overwrite and a remove, trained, then trained with an overwrite, a remove
// and an insert — and returns one line of ranked ids per query and phase.
func pinScenario(t *testing.T, name string, cfg ClientConfig) []string {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	c, s := setupUntrained(t, cfg, 4)
	queries := []*Doc{
		testDoc(0, 90),
		testDoc(1, 91),
		{ID: "q", Text: "volcano lava"},
		{ID: "q", Image: classImage(2, 92)},
		{ID: "q", Text: "city skyline night"},
		{ID: "q", Text: "glacier xylophone"},
	}
	var lines []string
	phase := func(label string) {
		for i, q := range queries {
			hits, err := c.Search(s, repoID, q, 6)
			must(err)
			ids := make([]string, len(hits))
			for j, h := range hits {
				ids[j] = h.Doc
			}
			lines = append(lines, fmt.Sprintf("%s/%s/q%d: %s", name, label, i, strings.Join(ids, ",")))
		}
	}
	must(c.Update(s, repoID, &Doc{ID: "doc-c0-1", Owner: "owner1", Text: "volcano eruption lava beach", Image: classImage(1, 40)}, dataKey()))
	must(s.remove(repoID, "doc-c2-3"))
	phase("untrained")
	must(c.Train(s, repoID))
	phase("trained")
	must(c.Update(s, repoID, &Doc{ID: "doc-c1-0", Owner: "owner1", Text: "glacier ice mountain snow", Image: classImage(0, 41)}, dataKey()))
	must(s.remove(repoID, "doc-c0-2"))
	must(c.Update(s, repoID, &Doc{ID: "late", Owner: "owner2", Text: "xylophone orchestra concert", Image: classImage(2, 42)}, dataKey()))
	phase("churned")
	return lines
}

func TestBaselineRankingsPinned(t *testing.T) {
	var lines []string
	for _, v := range variants {
		lines = append(lines, pinScenario(t, v.name, configFor(v.keys(t), v.padding))...)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != pinnedRankings {
		t.Errorf("rankings moved: digest %s, pinned %s\n%s", got, pinnedRankings, strings.Join(lines, "\n"))
	}
}
