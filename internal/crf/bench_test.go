package crf

import (
	"testing"

	"repro/internal/tagger"
)

func benchTrainingSet(n int) []tagger.Sequence {
	return trainToy(n)
}

func BenchmarkFit(b *testing.B) {
	train := benchTrainingSet(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Trainer{Config: Config{MaxIter: 30}}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	model, err := Trainer{Config: Config{MaxIter: 30}}.Fit(benchTrainingSet(50))
	if err != nil {
		b.Fatal(err)
	}
	seq := tagger.Sequence{
		Tokens: []string{"weight", "is", "3", "kg", "total", "and", "color", "is", "red"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN", "PART", "NN", "PART", "NN"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := model.Predict(seq); len(got) != len(seq.Tokens) {
			b.Fatal("bad prediction length")
		}
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	m := tinyModel(1)
	enc := &encodedSeq{feats: seqFeats(20)}
	fb := newFB(len(m.labels))
	pot := transPotentials(nil, m.trans, len(m.labels))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.run(m, pot, enc, 20)
	}
}

// BenchmarkFitDefault trains at the default Config on the workload-shaped
// sequences TestFitGolden pins: about 20 labels and a thousand-odd features,
// so it exercises the objective the way a bootstrap iteration does.
func BenchmarkFitDefault(b *testing.B) {
	train := genSequences(3, 56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Trainer{}).Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}
