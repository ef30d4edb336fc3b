package crf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/tagger"
)

// genSequences renders a generated Vacuum Cleaner detail-page corpus and
// labels its sentences the way the bootstrap's first iteration does:
// dictionary-table candidates are harvested, aggregated and cleaned against
// the query log, then every occurrence of a surviving value is tagged with
// its attribute. The result has a workload-sized label alphabet (20
// labels) and feature alphabet.
func genSequences(s uint64, items int) []tagger.Sequence {
	c := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: s, Items: items, Workers: 1})
	cfg := seed.Config{}.WithDefaults()
	docs := make([]seed.Document, len(c.Pages))
	var sents []seed.SentenceOf
	for i, p := range c.Pages {
		docs[i] = seed.Document{ID: p.ID, HTML: p.HTML}
		sents = append(sents, seed.SplitDocument(docs[i], cfg)...)
	}
	agg, _ := seed.AggregateAttributes(seed.DiscoverCandidates(docs), cfg)
	clean := seed.CleanValues(agg, c.Queries, cfg)
	return seed.LabelSentences(sents, clean, nil, cfg)
}

// predictionDigest hashes the labels and the exact confidence bits that
// predict assigns to seqs.
func predictionDigest(seqs []tagger.Sequence, predict func(tagger.Sequence) ([]string, []float64)) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range seqs {
		labels, conf := predict(s)
		for i, l := range labels {
			h.Write([]byte(l))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(conf[i]))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenHost names the precondition of the golden digests for a failure
// message. On amd64, math.Exp takes an FMA path when the CPU has AVX and FMA,
// and that path can round differently from the portable one, so constants
// recorded on one CPU class need not hold on another (DESIGN.md §10.2).
func goldenHost() string {
	return "GOARCH=" + runtime.GOARCH + "; the constants were recorded on an amd64 CPU with AVX and FMA " +
		"and hold only where math.Exp takes the same path"
}

// TestFitGolden pins the exact floats of a default-Config fit on
// workload-shaped data: the saved model bytes and the held-out confidence
// bits of both marginal paths must match constants recorded before the
// objective's transition potentials, gold score and expected-count scatter
// were restructured and before its label loops became kernels. Any change
// to a summation order shows up here as a different digest. It runs twice:
// with the kernels the CPU check dispatches to, and with the Go reference
// kernels forced, so both paths are pinned to the same constants. The
// constants must never be regenerated to make a kernel change pass.
func TestFitGolden(t *testing.T) {
	const (
		wantModel    = "f596451cf6757edb09331715d7e45d7b6aa7a8ee27f969eee5e168af427e5169"
		wantConf     = "f50a35c66455bf5838113d25cd23b64f4059bccbb67ecbcf48c2067e7fb4e915"
		wantMarginal = "f50a35c66455bf5838113d25cd23b64f4059bccbb67ecbcf48c2067e7fb4e915"
	)
	train := genSequences(3, 56)
	held := genSequences(4, 12)
	for _, kernels := range []struct {
		name string
		asm  bool
	}{{"dispatched", useAVX2}, {"go-reference", false}} {
		t.Run(kernels.name, func(t *testing.T) {
			saved := useAVX2
			useAVX2 = kernels.asm
			defer func() { useAVX2 = saved }()
			for _, workers := range []int{1, 4} {
				model, err := Trainer{Config: Config{Workers: workers}}.Fit(train)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				m := model.(*Model)
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != wantModel {
					t.Errorf("workers=%d: model digest %s, want %s (%s)", workers, got, wantModel, goldenHost())
				}
				if got := predictionDigest(held, m.PredictWithConfidence); got != wantConf {
					t.Errorf("workers=%d: PredictWithConfidence digest %s, want %s (%s)", workers, got, wantConf, goldenHost())
				}
				if got := predictionDigest(held, m.MarginalPredict); got != wantMarginal {
					t.Errorf("workers=%d: MarginalPredict digest %s, want %s (%s)", workers, got, wantMarginal, goldenHost())
				}
			}
		})
	}
}
