package text

import (
	"testing"
	"testing/quick"
)

func TestStemKnownVocabulary(t *testing.T) {
	// Reference pairs from Porter's original paper and its sample vocabulary.
	tests := []struct{ in, want string }{
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		{"happy", "happi"},
		{"sky", "sky"},
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"hesitanci", "hesit"},
		{"digitizer", "digit"},
		{"conformabli", "conform"},
		{"radicalli", "radic"},
		{"differentli", "differ"},
		{"vileli", "vile"},
		{"analogousli", "analog"},
		{"vietnamization", "vietnam"},
		{"predication", "predic"},
		{"operator", "oper"},
		{"feudalism", "feudal"},
		{"decisiveness", "decis"},
		{"hopefulness", "hope"},
		{"callousness", "callous"},
		{"formaliti", "formal"},
		{"sensitiviti", "sensit"},
		{"sensibiliti", "sensibl"},
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electriciti", "electr"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"gyroscopic", "gyroscop"},
		{"adjustable", "adjust"},
		{"defensible", "defens"},
		{"irritant", "irrit"},
		{"replacement", "replac"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		{"homologou", "homolog"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"angulariti", "angular"},
		{"homologous", "homolog"},
		{"effective", "effect"},
		{"bowdlerize", "bowdler"},
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
	}
	for _, tt := range tests {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "at", "is"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem usually yields the same stem for typical vocabulary;
	// verify on a realistic word list (full idempotence is not a Porter
	// guarantee, so we pin a representative set).
	words := []string{
		"running", "clouds", "encryption", "searching", "indexes",
		"mobile", "devices", "photos", "federated", "training",
	}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		if s1 != s2 {
			t.Errorf("Stem not stable for %q: %q -> %q", w, s1, s2)
		}
	}
}

func TestStemNeverGrows(t *testing.T) {
	f := func(raw string) bool {
		// restrict to lowercase ascii letters as the pipeline guarantees
		w := make([]byte, 0, len(raw))
		for _, c := range []byte(raw) {
			if c >= 'a' && c <= 'z' {
				w = append(w, c)
			}
		}
		word := string(w)
		return len(Stem(word)) <= len(word)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{name: "simple", in: "Hello World", want: []string{"hello", "world"}},
		{name: "punctuation", in: "cloud-based, secure! search?", want: []string{"cloud", "based", "secure", "search"}},
		{name: "digits kept", in: "room 42 floor2", want: []string{"room", "42", "floor2"}},
		{name: "single runes dropped", in: "a b c word", want: []string{"word"}},
		{name: "empty", in: "", want: nil},
		{name: "unicode letters", in: "Lisboa é linda", want: []string{"lisboa", "linda"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("token %d = %q, want %q", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestIsStopWord(t *testing.T) {
	if !IsStopWord("the") || !IsStopWord("and") {
		t.Error("common stop words not detected")
	}
	if IsStopWord("encryption") {
		t.Error("content word flagged as stop word")
	}
}

func TestExtract(t *testing.T) {
	h := Extract("The clouds are cloudy; a cloud searches the clouded cloud.")
	// All variants should stem to "cloud"-ish stems; stop words removed.
	if len(h) == 0 {
		t.Fatal("empty histogram")
	}
	for _, term := range h {
		if IsStopWord(term.Word) {
			t.Errorf("stop word %q survived extraction", term.Word)
		}
	}
	// "cloud" appears via clouds/cloud/clouded/cloud -> freq >= 4
	var cloudFreq uint64
	for _, term := range h {
		if term.Word == "cloud" {
			cloudFreq = term.Freq
		}
	}
	if cloudFreq < 4 {
		t.Errorf("cloud stem freq = %d, want >= 4 (histogram: %v)", cloudFreq, h)
	}
}

func TestExtractDeterministicOrder(t *testing.T) {
	a := Extract("zebra apple mango apple zebra banana")
	b := Extract("banana zebra apple mango zebra apple")
	if len(a) != len(b) {
		t.Fatalf("histograms differ in size: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("term %d: %v vs %v (order must be deterministic)", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Word >= a[i].Word {
			t.Errorf("histogram not sorted at %d: %q >= %q", i, a[i-1].Word, a[i].Word)
		}
	}
}

func TestTFIDF(t *testing.T) {
	if got := TFIDF(0, 100, 10); got != 0 {
		t.Errorf("tf=0 should score 0, got %v", got)
	}
	if got := TFIDF(5, 0, 10); got != 0 {
		t.Errorf("empty corpus should score 0, got %v", got)
	}
	if got := TFIDF(5, 100, 0); got != 0 {
		t.Errorf("df=0 should score 0, got %v", got)
	}
	rare := TFIDF(3, 1000, 2)
	common := TFIDF(3, 1000, 900)
	if rare <= common {
		t.Errorf("rare term (%v) should outscore common term (%v)", rare, common)
	}
	// term in every document has idf log(1) = 0
	if got := TFIDF(3, 100, 100); got != 0 {
		t.Errorf("ubiquitous term should score 0, got %v", got)
	}
	// df > N (possible transiently under concurrent updates) must not go negative
	if got := TFIDF(3, 100, 200); got < 0 {
		t.Errorf("score must be clamped at 0, got %v", got)
	}
}
