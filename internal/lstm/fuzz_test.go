package lstm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"testing"

	"repro/internal/tagger"
)

// savedWire trains a tiny model and returns its decoded wire form. It is
// kept tiny so the fuzzer's seed inputs stay around a kilobyte.
func savedWire(t testing.TB) modelWire {
	t.Helper()
	cfg := Config{WordDim: 2, CharDim: 2, CharHidden: 2, WordHidden: 2, Epochs: 1, Seed: 3}
	model, err := Trainer{Config: cfg}.Fit(toySequences(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.(*Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var w modelWire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	return w
}

func encodeWire(t testing.TB, w modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// extraWords returns n distinct words that no toy vocabulary contains.
func extraWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("extra%d", i)
	}
	return words
}

// TestLoadRejectsInconsistentShapes re-encodes a saved model with one
// dimension out of line with the others. Each used to load and then panic
// in Predict; each must now fail Load.
func TestLoadRejectsInconsistentShapes(t *testing.T) {
	cellOf := func(din, h int) cellWire {
		return cellWire{Din: din, H: h, Wx: make([]float64, 4*h*din), Wh: make([]float64, 4*h*h), B: make([]float64, 4*h)}
	}
	for name, mutate := range map[string]func(*modelWire){
		"more words than embedding rows": func(w *modelWire) { w.Words = append(w.Words, extraWords(w.WordEmbNR)...) },
		"more chars than embedding rows": func(w *modelWire) {
			for i := 0; i < w.CharEmbNR; i++ {
				w.Chars = append(w.Chars, rune(0x4e00+i))
			}
		},
		"char cell input size":  func(w *modelWire) { w.CharFwd = cellOf(w.Config.CharDim+1, w.Config.CharHidden) },
		"char cell hidden size": func(w *modelWire) { w.CharBwd = cellOf(w.Config.CharDim, w.Config.CharHidden+1) },
		"word cell input size": func(w *modelWire) {
			w.WordFwd = cellOf(w.Config.WordDim+w.Config.CharHidden, w.Config.WordHidden)
		},
		"word cell hidden size": func(w *modelWire) {
			w.WordBwd = cellOf(w.Config.WordDim+2*w.Config.CharHidden, w.Config.WordHidden-1)
		},
		"output layer reshaped": func(w *modelWire) { w.OutRows, w.OutCols = 2*w.OutRows, w.OutCols/2 },
		"duplicate word":        func(w *modelWire) { w.Words[1] = w.Words[0] },
		"duplicate label":       func(w *modelWire) { w.Labels[1] = w.Labels[0] },
		"duplicate char":        func(w *modelWire) { w.Chars[1] = w.Chars[0] },
		"zero word dimension": func(w *modelWire) {
			w.Config.WordDim, w.WordEmb = 0, nil
		},
		"overflowing row count": func(w *modelWire) {
			w.WordEmbNR, w.WordEmb = 1<<62, nil
			w.Config.WordDim = 4
		},
	} {
		w := savedWire(t)
		mutate(&w)
		if _, err := Load(bytes.NewReader(encodeWire(t, w))); err == nil {
			t.Errorf("%s: Load accepted the model", name)
		}
	}
	if _, err := Load(bytes.NewReader(encodeWire(t, savedWire(t)))); err != nil {
		t.Fatalf("unmodified model: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to Load: every input must either fail with
// an error or yield a model that tags empty and one-token sentences without
// panicking.
func FuzzLoad(f *testing.F) {
	w := savedWire(f)
	f.Add(encodeWire(f, w))
	w.Words = append(w.Words, extraWords(w.WordEmbNR)...)
	f.Add(encodeWire(f, w))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		vocab := make([]string, 0, len(m.wordVocab))
		for w := range m.wordVocab {
			vocab = append(vocab, w)
		}
		sort.Strings(vocab)
		p := m.NewConfidencePredictor()
		for _, toks := range [][]string{{}, {""}, {"a"}, {"未"}, {"\xff"}, vocab} {
			seq := tagger.Sequence{Tokens: toks}
			if got := m.Predict(seq); len(got) != len(toks) {
				t.Fatalf("Predict(%q) returned %d labels", toks, len(got))
			}
			if got, _ := p.PredictWithConfidence(seq); len(got) != len(toks) {
				t.Fatalf("PredictWithConfidence(%q) returned %d labels", toks, len(got))
			}
		}
	})
}
