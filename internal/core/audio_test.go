package core

import (
	"bytes"
	"fmt"
	"testing"

	"mie/internal/audio"
	"mie/internal/dpe"
	"mie/internal/imaging"
)

// voiceClip synthesizes a clip of a given "speaker" class: shared partials
// with per-instance noise, so same-class clips are spectrally similar.
func voiceClip(t *testing.T, class int, instance int64) *audio.Clip {
	t.Helper()
	bases := [][]float64{
		{220, 440, 660},
		{1200, 2400, 3100},
		{500, 3500, 5200},
	}
	amps := []float64{1, 0.6, 0.3}
	c, err := audio.Tone(0.08, bases[class%len(bases)], amps, 0.08, instance+int64(class)*991)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func audioTestClient(t *testing.T) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Key:        testRepoKey(1),
		Dense:      dpe.DenseParams{InDim: imaging.DescriptorDim, OutDim: 256, Threshold: 0.5},
		AudioDense: dpe.DenseParams{InDim: audio.DescriptorDim, OutDim: 256, Threshold: 0.5},
		Pyramid:    imaging.PyramidParams{Scales: []int{16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAudioOnlyObjectAccepted(t *testing.T) {
	c := audioTestClient(t)
	obj := &Object{ID: "clip1", Owner: "u", Audio: voiceClip(t, 0, 1)}
	if got := obj.Modalities(); len(got) != 1 || got[0] != ModalityAudio {
		t.Fatalf("Modalities = %v", got)
	}
	up, err := c.PrepareUpdate(obj, testDataKey(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(up.AudioEncodings) == 0 {
		t.Fatal("no audio encodings")
	}
	if len(up.ImageEncodings) != 0 || len(up.TextTokens) != 0 {
		t.Error("phantom modalities encoded")
	}
}

func TestAudioSearchUntrainedAndTrained(t *testing.T) {
	c := audioTestClient(t)
	r, err := NewRepository("audio-repo", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 4; i++ {
			obj := &Object{
				ID:    fmt.Sprintf("clip-c%d-%d", cls, i),
				Owner: "u",
				Audio: voiceClip(t, cls, int64(i)),
			}
			up, err := c.PrepareUpdate(obj, testDataKey(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Update(up); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		q, err := c.PrepareQuery(&Object{ID: "q", Audio: voiceClip(t, 1, 99)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		hits, err := r.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatalf("%s: no hits", stage)
		}
		same := 0
		for _, h := range hits {
			var cls, n int
			if _, err := fmt.Sscanf(h.ObjectID, "clip-c%d-%d", &cls, &n); err == nil && cls == 1 {
				same++
			}
		}
		if same < 3 {
			t.Errorf("%s: only %d/%d hits from the query's class: %+v", stage, same, len(hits), hits)
		}
	}
	check("untrained (linear scan)")
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	if r.AudioVocabularySize() == 0 {
		t.Fatal("no audio vocabulary after training")
	}
	check("trained (indexed)")
}

func TestTrimodalObjectFusion(t *testing.T) {
	// An object carrying all three modalities: a query matching on all
	// three must outrank single-modality matches via fusion.
	c := audioTestClient(t)
	r, err := NewRepository("trimodal", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	add := func(id, txt string, imgClass int, audClass int) {
		t.Helper()
		obj := &Object{ID: id, Owner: "u", Text: txt}
		if imgClass >= 0 {
			obj.Image = classImage(imgClass, int64(len(id)))
		}
		if audClass >= 0 {
			obj.Audio = voiceClip(t, audClass, int64(len(id)))
		}
		up, err := c.PrepareUpdate(obj, testDataKey(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	add("full-match", "concert recording music live", 0, 0)
	add("text-only-match", "concert recording music live", 1, 2)
	add("unrelated", "gardening tips spring flowers", 2, 1)
	add("decoy-a", "random filler words here", 1, 2)
	add("decoy-b", "more filler text content", 2, 1)
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	q, err := c.PrepareQuery(&Object{
		ID:    "q",
		Text:  "concert music",
		Image: classImage(0, 777),
		Audio: voiceClip(t, 0, 777),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.AudioEncodings) == 0 || len(q.ImageEncodings) == 0 || len(q.TextTokens) == 0 {
		t.Fatal("query missing a modality")
	}
	hits, err := r.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ObjectID != "full-match" {
		t.Errorf("tri-modal agreement should win: %+v", hits)
	}
}

func TestAudioSnapshotRoundTrip(t *testing.T) {
	c := audioTestClient(t)
	r, err := NewRepository("audio-snap", smallRepoOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		obj := &Object{ID: fmt.Sprintf("a%d", i), Owner: "u", Audio: voiceClip(t, i%2, int64(i))}
		up, err := c.PrepareUpdate(obj, testDataKey(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.AudioVocabularySize() != r.AudioVocabularySize() {
		t.Errorf("audio vocabulary lost: %d vs %d", restored.AudioVocabularySize(), r.AudioVocabularySize())
	}
	q, err := c.PrepareQuery(&Object{ID: "q", Audio: voiceClip(t, 0, 50)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := restored.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("restored audio repository unsearchable")
	}
}
