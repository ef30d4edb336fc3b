package lstm

import (
	"testing"

	"repro/internal/tagger"
)

func BenchmarkFitEpoch(b *testing.B) {
	train := toySequences(30, 3)
	cfg := smallConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Trainer{Config: cfg}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	model, err := Trainer{Config: smallConfig(2)}.Fit(toySequences(20, 4))
	if err != nil {
		b.Fatal(err)
	}
	seq := tagger.Sequence{Tokens: []string{"weight", "is", "3", "kg", "color", "is", "red"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := model.Predict(seq); len(got) != len(seq.Tokens) {
			b.Fatal("bad prediction length")
		}
	}
}

// BenchmarkFitDefault trains at the default dimensions (48/24/24/48) on
// generated Vacuum Cleaner titles, where the matrix-vector kernels dominate
// as they do in the pipeline; smallConfig's toy sizes hide them.
func BenchmarkFitDefault(b *testing.B) {
	train := genSequences(21, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Trainer{}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDefault tags a held-out set of generated titles with a
// default-dimension model the way one extract.Engine.TagSentences call does:
// one predictor for the whole set.
func BenchmarkPredictDefault(b *testing.B) {
	model, err := Trainer{}.Fit(genSequences(21, 48))
	if err != nil {
		b.Fatal(err)
	}
	held := genSequences(22, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := model.(*Model).NewPredictor()
		for _, s := range held {
			if got := p.Predict(s); len(got) != len(s.Tokens) {
				b.Fatal("bad prediction length")
			}
		}
	}
}
