package lstm

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/tagger"
)

// predictorInputs mixes held-out generated titles with the token shapes the
// char memo must not confuse: words repeated within and across sentences,
// out-of-vocabulary words and runes, multi-byte runes, empty tokens and
// invalid UTF-8.
func predictorInputs() []tagger.Sequence {
	seqs := genSequences(22, 12)
	for _, toks := range [][]string{
		{"掃除機", "掃除機", "掃除機"},
		{"zzqx", "未知語", "zzqx", "掃除機"},
		{"", "掃除機", "", ""},
		{"\xff", "a\xffb", "ワット", "W"},
		{""},
		{},
	} {
		seqs = append(seqs, tagger.Sequence{Tokens: toks})
	}
	return seqs
}

// reference tags seqs through the model's memo-free forward pass.
func reference(m *Model, seqs []tagger.Sequence) ([][]string, [][]float64) {
	labels := make([][]string, len(seqs))
	conf := make([][]float64, len(seqs))
	for i, s := range seqs {
		labels[i] = make([]string, len(s.Tokens))
		conf[i] = make([]float64, len(s.Tokens))
		for t, row := range m.Probabilities(s) {
			best, arg := -1.0, 0
			for y, p := range row {
				if p > best {
					best, arg = p, y
				}
			}
			labels[i][t], conf[i][t] = m.Labels()[arg], best
		}
	}
	return labels, conf
}

func checkTagging(t *testing.T, what string, gotL [][]string, gotC [][]float64, wantL [][]string, wantC [][]float64) {
	t.Helper()
	for i := range wantL {
		for j := range wantL[i] {
			if gotL[i][j] != wantL[i][j] {
				t.Fatalf("%s: sentence %d token %d label %q, want %q", what, i, j, gotL[i][j], wantL[i][j])
			}
			if gotC != nil && math.Float64bits(gotC[i][j]) != math.Float64bits(wantC[i][j]) {
				t.Fatalf("%s: sentence %d token %d confidence %v, want %v", what, i, j, gotC[i][j], wantC[i][j])
			}
		}
	}
}

// twoPasses is what one predictor returned on a first (cold memo) and a
// second (warm memo) pass over the same sentences.
type twoPasses struct {
	labels [2][][]string
	conf   [2][][]float64
}

// tagTwice runs every sentence through one predictor twice, so the second
// pass reads every word's char encoding from the memo.
func tagTwice(p tagger.ConfidenceModel, seqs []tagger.Sequence) twoPasses {
	var r twoPasses
	for pass := range r.labels {
		for _, s := range seqs {
			l, c := p.PredictWithConfidence(s)
			r.labels[pass] = append(r.labels[pass], l)
			r.conf[pass] = append(r.conf[pass], c)
		}
	}
	return r
}

// check compares both passes against the reference tagging.
func (r twoPasses) check(t *testing.T, what string, wantL [][]string, wantC [][]float64) {
	t.Helper()
	checkTagging(t, what+", memo cold", r.labels[0], r.conf[0], wantL, wantC)
	checkTagging(t, what+", memo warm", r.labels[1], r.conf[1], wantL, wantC)
}

func trainedForPredictor(t *testing.T) *Model {
	t.Helper()
	model, err := Trainer{Config: Config{Epochs: 1}}.Fit(genSequences(21, 24))
	if err != nil {
		t.Fatal(err)
	}
	return model.(*Model)
}

// TestPredictorMatchesModel checks that minted predictors, whose char memo
// persists across sentences, tag bit-identically to the model's memo-free
// forward pass and to Model.Predict / PredictWithConfidence, before and
// after a Save/Load round trip, the model half of the bundle codec.
func TestPredictorMatchesModel(t *testing.T) {
	trained := trainedForPredictor(t)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seqs := predictorInputs()
	wantL, wantC := reference(trained, seqs)
	for name, m := range map[string]*Model{"trained": trained, "round-tripped": decoded} {
		gotL, gotC := reference(m, seqs)
		checkTagging(t, name+" Probabilities", gotL, gotC, wantL, wantC)

		var modelL [][]string
		var modelCL [][]string
		var modelC [][]float64
		for _, s := range seqs {
			modelL = append(modelL, m.Predict(s))
			l, c := m.PredictWithConfidence(s)
			modelCL, modelC = append(modelCL, l), append(modelC, c)
		}
		checkTagging(t, name+" Model.Predict", modelL, nil, wantL, wantC)
		checkTagging(t, name+" Model.PredictWithConfidence", modelCL, modelC, wantL, wantC)

		tagTwice(m.NewConfidencePredictor(), seqs).check(t, name+" confidence predictor", wantL, wantC)

		p := m.NewPredictor()
		var predL [][]string
		for pass := 0; pass < 2; pass++ {
			predL = predL[:0]
			for _, s := range seqs {
				predL = append(predL, p.Predict(s))
			}
			checkTagging(t, name+" predictor", predL, nil, wantL, wantC)
		}
	}
}

// TestPredictorsConcurrent runs eight predictors of one model on eight
// goroutines; under -race it proves predictors share only read-only state.
func TestPredictorsConcurrent(t *testing.T) {
	m := trainedForPredictor(t)
	seqs := predictorInputs()
	wantL, wantC := reference(m, seqs)
	var wg sync.WaitGroup
	results := make([]twoPasses, 8)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = tagTwice(m.NewConfidencePredictor(), seqs)
		}()
	}
	wg.Wait()
	for _, r := range results {
		r.check(t, "concurrent predictor", wantL, wantC)
	}
}
