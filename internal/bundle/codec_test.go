package bundle

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/crf"
	"repro/internal/tagger"
)

// tinyCRF trains a CRF on one short sentence, small enough that its
// encoding makes a fuzz seed of about a kilobyte.
func tinyCRF(t testing.TB, value, label string) tagger.Model {
	t.Helper()
	seq := tagger.Sequence{
		Tokens: []string{"color", value},
		PoS:    []string{"NN", "NN"},
		Labels: []string{"O", label},
	}
	m, err := crf.Trainer{Config: crf.Config{MaxIter: 3, Feature: crf.FeatureConfig{Window: 1}}}.Fit([]tagger.Sequence{seq})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeModel(t testing.TB, m tagger.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyEnsemble is a valid two-member union ensemble of tiny CRFs.
func tinyEnsemble(t testing.TB) *tagger.Ensemble {
	return &tagger.Ensemble{
		Mode:    tagger.Union,
		Members: []tagger.Model{tinyCRF(t, "red", "B-color"), tinyCRF(t, "blue", "B-colour")},
	}
}

// TestDecodeModelRejectsHostileEnsembles covers two ensemble headers that
// used to get through: a member length prefix far past the end of the model
// section, which sized a 256 MiB allocation before the read failed, and an
// unknown mode byte, which decoded into an ensemble that predicted like a
// union while naming itself an intersection.
func TestDecodeModelRejectsHostileEnsembles(t *testing.T) {
	t.Run("member length past the section", func(t *testing.T) {
		input := []byte{kindEnsemble, 0, 1, 0x10, 0, 0, 0}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeModel(bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("decoding a %d-byte model allocated %d bytes", len(input), grew)
		}
	})
	t.Run("unknown mode", func(t *testing.T) {
		input := encodeModel(t, tinyEnsemble(t))
		input[1] = 9
		if m, err := DecodeModel(bytes.NewReader(input)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decoded %s, err = %v; want ErrCorrupt", ModelKindName(m), err)
		}
	})
}

// FuzzDecodeModel feeds arbitrary bytes to DecodeModel: every input must
// either fail with an error wrapping ErrCorrupt or ErrUnknownModel, or
// yield a model that predicts empty and one-token sentences without
// panicking. Seeds: the two hostile ensembles above, a valid CRF and a
// valid two-member ensemble.
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownModel) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, toks := range [][]string{{}, {"color"}, {"\xff"}} {
			seq := tagger.Sequence{Tokens: toks, PoS: toks}
			if got := m.Predict(seq); len(got) != len(toks) {
				t.Fatalf("%s: Predict(%q) returned %d labels", ModelKindName(m), toks, len(got))
			}
		}
	})
}
