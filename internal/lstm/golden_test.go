package lstm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/tagger"
	"repro/internal/text"
)

// genSequences tokenises generated Vacuum Cleaner listing titles and labels
// them with their planted correct values: the shortest token run starting at
// a position whose normalised concatenation equals a value becomes the
// B-/I- span of its attribute. The titles are Japanese, so the char-BiLSTM
// sees multi-byte runes, and most words repeat across sentences.
func genSequences(seed uint64, items int) []tagger.Sequence {
	c := gen.GenerateTitles(gen.VacuumCleaner(), gen.Options{Seed: seed, Items: items, Workers: 1})
	truth := make(map[string][]gen.TruthTriple)
	for _, tr := range c.Truth {
		if tr.Correct {
			truth[tr.ProductID] = append(truth[tr.ProductID], tr)
		}
	}
	tok := text.ForLanguage(c.Lang)
	seqs := make([]tagger.Sequence, 0, len(c.Pages))
	for _, p := range c.Pages {
		toks := text.Texts(tok.Tokenize(p.HTML))
		labels := make([]string, len(toks))
		for i := range labels {
			labels[i] = tagger.Outside
		}
		for _, tr := range truth[p.ID] {
			for i := range toks {
				s := ""
				for j := i; j < len(toks) && labels[j] == tagger.Outside; j++ {
					s += toks[j]
					if gen.NormalizeValue(s) != tr.Value {
						continue
					}
					labels[i] = tagger.Begin(tr.Attribute)
					for k := i + 1; k <= j; k++ {
						labels[k] = tagger.Inside(tr.Attribute)
					}
					break
				}
			}
		}
		seqs = append(seqs, tagger.Sequence{Tokens: toks, Labels: labels})
	}
	return seqs
}

// probsDigest hashes the exact bits of every probability the model assigns
// to seqs.
func probsDigest(m *Model, seqs []tagger.Sequence) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range seqs {
		for _, row := range m.Probabilities(s) {
			for _, p := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenHost names the precondition of the golden digests for a failure
// message. On amd64, math.Exp takes an FMA path when the CPU has AVX and FMA,
// and that path can round differently from the portable one, so constants
// recorded on one CPU class need not hold on another (DESIGN.md §10.1).
func goldenHost() string {
	return "GOARCH=" + runtime.GOARCH + "; the constants were recorded on an amd64 CPU with AVX and FMA " +
		"and hold only where math.Exp takes the same path"
}

// TestFitGolden pins the exact floats of a default-dimension fit: the saved
// model bytes and the held-out probability bits must match constants that
// were recorded before the tiled kernels, deferred backward pass, parallel
// apply and char memo replaced the per-step implementation. Any change to a
// summation order shows up here as a different digest.
//
// The saved bytes carry gob type ids, which follow the order in which the
// linked packages pin their wire types at init. The constants hold for this
// package's test binary as long as it links no other package that pins gob
// types (crf, bundle, core); a test that needs those belongs elsewhere.
func TestFitGolden(t *testing.T) {
	const (
		wantModel = "2d6c711c4ebde09bcb813e75140e3f8574dff28f58bddf5387b96af7716d23c1"
		wantProbs = "065ce6d48de82bb9a913fb448f1c93861efcd68a2bd10c4ec0f6f4a0a4f92585"
	)
	train := genSequences(21, 48)
	held := genSequences(22, 16)
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
		if got := probsDigest(m, held); got != wantProbs {
			t.Errorf("workers=%d: probabilities digest %s, want %s (%s)", workers, got, wantProbs, goldenHost())
		}
	}
}
