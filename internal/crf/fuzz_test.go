package crf

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"repro/internal/tagger"
)

// savedWire trains a tiny model and returns its decoded wire form. It is
// kept tiny so the fuzzer's seed inputs stay around a kilobyte.
func savedWire(t testing.TB) modelWire {
	t.Helper()
	seq := tagger.Sequence{
		Tokens: []string{"color", "red"},
		PoS:    []string{"NN", "NN"},
		Labels: []string{"O", "B-color"},
	}
	model, err := Trainer{Config: Config{MaxIter: 3, Feature: FeatureConfig{Window: 1}}}.Fit([]tagger.Sequence{seq})
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

// corruptions are re-encodings of a saved model that Load must reject. The
// first two used to load: a huge window made featurising a 4-token sentence
// take tens of seconds, and a duplicated label pointed "O" at the wrong row.
var corruptions = map[string]func(*modelWire){
	"huge window":         func(w *modelWire) { w.Config.Feature.Window = 1 << 24 },
	"duplicate label":     func(w *modelWire) { w.Labels[1] = w.Labels[0] },
	"zero window":         func(w *modelWire) { w.Config.Feature.Window = 0 },
	"negative window":     func(w *modelWire) { w.Config.Feature.Window = -1 },
	"window past maximum": func(w *modelWire) { w.Config.Feature.Window = MaxWindow + 1 },
	"duplicate feature":   func(w *modelWire) { w.Features[1] = w.Features[0] },
	"NaN emission":        func(w *modelWire) { w.Emit[0] = math.NaN() },
	"infinite transition": func(w *modelWire) { w.Trans[len(w.Trans)-1] = math.Inf(-1) },
	"missing transition":  func(w *modelWire) { w.Trans = w.Trans[1:] },
	"no labels":           func(w *modelWire) { w.Labels, w.Emit, w.Trans = nil, nil, nil },
	"wrong version":       func(w *modelWire) { w.Version++ },
}

// TestLoadRejectsCorruptModels re-encodes a saved model with one field out
// of line and requires Load to fail on each.
func TestLoadRejectsCorruptModels(t *testing.T) {
	for name, mutate := range corruptions {
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
// an error or yield a model that decodes empty and one-token sentences
// through every inference path without panicking and promptly.
func FuzzLoad(f *testing.F) {
	f.Add(encodeWire(f, savedWire(f)))
	for _, name := range []string{"huge window", "duplicate label"} {
		w := savedWire(f)
		corruptions[name](&w)
		f.Add(encodeWire(f, w))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		start := time.Now()
		d := m.NewDecoder()
		for _, toks := range [][]string{{}, {""}, {"weight"}, {"\xff"}} {
			seq := tagger.Sequence{Tokens: toks, PoS: toks}
			if got := m.Predict(seq); len(got) != len(toks) {
				t.Fatalf("Predict(%q) returned %d labels", toks, len(got))
			}
			if got, conf := d.PredictWithConfidence(seq); len(got) != len(toks) || len(conf) != len(toks) {
				t.Fatalf("PredictWithConfidence(%q) returned %d labels, %d confidences", toks, len(got), len(conf))
			}
			if got, conf := m.MarginalPredict(seq); len(got) != len(toks) || len(conf) != len(toks) {
				t.Fatalf("MarginalPredict(%q) returned %d labels, %d confidences", toks, len(got), len(conf))
			}
		}
		// Generous enough for the race detector on a loaded machine; the
		// huge-window model took tens of seconds here before Load bounded
		// the window.
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("decoding empty and one-token sentences took %v", el)
		}
	})
}
