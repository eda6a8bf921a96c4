package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationEncodingSize(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	cfg := Quick()
	rows, err := AblationEncodingSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger encodings must not be dramatically worse than small ones; and
	// the largest should be at least as good as the smallest (less noise).
	if rows[3].MAP+0.05 < rows[0].MAP {
		t.Errorf("M=4096 mAP %v much worse than M=128 mAP %v", rows[3].MAP, rows[0].MAP)
	}
	var buf bytes.Buffer
	WriteAblationReport(&buf, "encoding size", rows)
	if !strings.Contains(buf.String(), "M=2048") {
		t.Error("report missing M=2048 row")
	}
}

func TestAblationThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	cfg := Quick()
	rows, err := AblationThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MAP < 0 || r.MAP > 1 {
			t.Errorf("%s: mAP %v out of range", r.Setting, r.MAP)
		}
	}
}

func TestAblationTrainingSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	cfg := Quick()
	rows, err := AblationTrainingSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The Hamming/encoded pipeline should be within a reasonable band of
	// the plaintext pipeline (the Table III claim).
	if rows[1].MAP < rows[0].MAP-0.25 {
		t.Errorf("encoded-space mAP %v far below plaintext %v", rows[1].MAP, rows[0].MAP)
	}
}

func TestAblationChampionSize(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	rows, err := AblationChampionSize(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// P@10 against the unbounded index for R = 5, 20, 50, 200: the values the
	// spilling champion index printed before the lists moved into the
	// ablation.
	want := []float64{0.8, 1, 1, 1}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.MAP != want[i] {
			t.Errorf("%s: P@10 = %v, want %v", r.Setting, r.MAP, want[i])
		}
	}
}

func TestAblationFusion(t *testing.T) {
	if testing.Short() {
		t.Skip("slow ablation")
	}
	cfg := Quick()
	rows, err := AblationFusion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MAP < 0 || r.MAP > 1 {
			t.Errorf("%s: score %v out of range", r.Setting, r.MAP)
		}
	}
}
