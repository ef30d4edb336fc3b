package lstm

import (
	"fmt"
	"sort"
	"unicode/utf8"

	"repro/internal/mat"
	"repro/internal/tagger"
)

// Config holds the network and training hyper-parameters. Zero values take
// the defaults, which follow NeuroNER's out-of-the-box configuration scaled
// to per-category corpus sizes.
type Config struct {
	WordDim    int     // word-embedding dimension (default 48)
	CharDim    int     // char-embedding dimension (default 24)
	CharHidden int     // per-direction char LSTM size (default 24)
	WordHidden int     // per-direction word LSTM size (default 48)
	Epochs     int     // SGD epochs (default 2, the paper's stable setting)
	Rate       float64 // initial learning rate (default 0.5)
	Decay      float64 // per-epoch learning-rate decay (default 0.05)
	Dropout    float64 // dropout on the token representation (default 0.5)
	ClipNorm   float64 // global gradient-norm clip (default 5)
	MinCount   int     // words rarer than this become UNK (default 2)
	Seed       uint64  // RNG seed (default 1)
	// Batch is the deterministic mini-batch size (default 8). All sentences
	// of a batch compute gradients against the batch-start weights; the SGD
	// updates are then applied one sentence at a time in batch order. Batch
	// changes the trained weights, so it is part of the model identity.
	Batch int
	// Workers bounds how many sentences of a batch run forward/backward
	// concurrently; zero means one per CPU. Gradients are applied in batch
	// order regardless of scheduling, so the trained model is bit-identical
	// for every Workers value. Workers is normalised to zero on the trained
	// model so saved artifacts do not depend on the machine that ran.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.WordDim <= 0 {
		c.WordDim = 48
	}
	if c.CharDim <= 0 {
		c.CharDim = 24
	}
	if c.CharHidden <= 0 {
		c.CharHidden = 24
	}
	if c.WordHidden <= 0 {
		c.WordHidden = 48
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	if c.Rate <= 0 {
		c.Rate = 0.5
	}
	if c.Decay <= 0 {
		c.Decay = 0.05
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		c.Dropout = 0.5
	} else if c.Dropout == 0 {
		c.Dropout = 0.5
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	return c
}

// DefaultBatch is the mini-batch size a zero Config.Batch resolves to,
// exported so the pipeline can report the effective value in its telemetry.
const DefaultBatch = 8

// Model is a trained BiLSTM tagger.
type Model struct {
	cfg       Config
	labels    []string
	labelIdx  map[string]int
	wordVocab map[string]int // id 0 is UNK
	charVocab map[rune]int   // id 0 is UNK

	wordEmb *mat.Matrix // |Vw| × WordDim
	charEmb *mat.Matrix // |Vc| × CharDim
	charFwd *cell
	charBwd *cell
	wordFwd *cell
	wordBwd *cell
	out     *mat.Matrix // L × 2·WordHidden
	outB    []float64
}

// Labels returns the label alphabet.
func (m *Model) Labels() []string { return m.labels }

func (m *Model) wordID(w string) int {
	if id, ok := m.wordVocab[w]; ok {
		return id
	}
	return 0
}

// charForward runs the char-BiLSTM over the runes of w, carved from s; an
// empty word has no steps. Runes outside the vocabulary read the UNK row.
func (m *Model) charForward(s *scratch, w string) (fwd, bwd []step) {
	xs := s.vecs.alloc(utf8.RuneCountInString(w))
	if len(xs) == 0 {
		return nil, nil
	}
	k := 0
	for _, r := range w {
		xs[k] = m.charEmb.Row(m.charVocab[r])
		k++
	}
	return m.charFwd.forward(s, xs), m.charBwd.forward(s, s.reversed(xs))
}

// Predict implements tagger.Model: per-token argmax over the softmax output,
// as in NeuroNER's demo configuration. Callers tagging many sentences should
// mint a predictor with NewPredictor instead.
func (m *Model) Predict(seq tagger.Sequence) []string {
	return m.newPredictor().Predict(seq)
}

// Probabilities returns the per-token label distribution, exposed for the
// pipeline's confidence heuristics and for tests.
func (m *Model) Probabilities(seq tagger.Sequence) [][]float64 {
	return m.forwardProbs(seq.Tokens, nil)
}

// PredictWithConfidence implements tagger.ConfidenceModel: the argmax labels
// plus their softmax probabilities.
func (m *Model) PredictWithConfidence(seq tagger.Sequence) ([]string, []float64) {
	return m.newPredictor().PredictWithConfidence(seq)
}

// NewPredictor implements tagger.PredictorModel.
func (m *Model) NewPredictor() tagger.Model { return m.newPredictor() }

// NewConfidencePredictor implements tagger.ConfidencePredictorModel.
func (m *Model) NewConfidencePredictor() tagger.ConfidenceModel { return m.newPredictor() }

// predictor tags sentences for one goroutine. It reuses one sentence's
// scratch and memoises each distinct word's char-BiLSTM output, which
// depends only on the word and the weights. The memo lives here rather than
// on the Model because the weights are frozen only while a predictor is in
// use: training never mints one, and a test that perturbs weights runs the
// forward pass without one. It grows with the distinct words the predictor
// sees, which the pipeline bounds by minting predictors per tagging call.
type predictor struct {
	m     *Model
	cache fwdCache
}

func (m *Model) newPredictor() *predictor {
	return &predictor{m: m, cache: fwdCache{memo: make(map[string][]float64)}}
}

// Predict implements tagger.Model.
func (p *predictor) Predict(seq tagger.Sequence) []string {
	labels, _ := p.PredictWithConfidence(seq)
	return labels
}

// PredictWithConfidence implements tagger.ConfidenceModel.
func (p *predictor) PredictWithConfidence(seq tagger.Sequence) ([]string, []float64) {
	n := len(seq.Tokens)
	labels := make([]string, n)
	conf := make([]float64, n)
	if n == 0 {
		return labels, conf
	}
	p.cache.sc.reset()
	for t, row := range p.m.forwardProbs(seq.Tokens, &p.cache) {
		best, arg := -1.0, 0
		for y, v := range row {
			if v > best {
				best, arg = v, y
			}
		}
		labels[t] = p.m.labels[arg]
		conf[t] = best
	}
	return labels, conf
}

// forwardProbs runs the full network forward over tokens, drawing from the
// scratch in c (a fresh one when c is nil). With a drop mask set (training)
// it applies dropout to the token representations and keeps the
// activations in c for backprop; with a memo set (a predictor) it looks up
// and records char-BiLSTM outputs by word.
func (m *Model) forwardProbs(tokens []string, c *fwdCache) [][]float64 {
	if c == nil {
		c = new(fwdCache)
	}
	s := &c.sc
	n := len(tokens)
	train := c.dropMask != nil
	wd, hc := m.cfg.WordDim, m.cfg.CharHidden
	reps := s.vecs.alloc(n)
	if train {
		c.charF = resize(c.charF, n)
		c.charB = resize(c.charB, n)
	}
	// A token's representation is its word embedding followed by the final
	// states of the forward and backward char LSTMs.
	for t, w := range tokens {
		rep := s.floats.alloc(wd + 2*hc)
		copy(rep, m.wordEmb.Row(m.wordID(w)))
		reps[t] = rep
		if out, ok := c.memo[w]; ok {
			copy(rep[wd:], out)
			continue
		}
		fs, bs := m.charForward(s, w)
		if train {
			c.charF[t], c.charB[t] = fs, bs
		}
		if len(fs) > 0 {
			copy(rep[wd:], fs[len(fs)-1].h)
			copy(rep[wd+hc:], bs[len(bs)-1].h)
		}
		if c.memo != nil {
			c.memo[w] = append([]float64(nil), rep[wd:]...)
		}
	}
	if train {
		for t, rep := range reps {
			for j := range rep {
				rep[j] *= c.dropMask[t][j]
			}
		}
	}
	fwdSteps := m.wordFwd.forward(s, reps)
	bwdSteps := m.wordBwd.forward(s, s.reversed(reps))
	hw := m.cfg.WordHidden
	probs := s.vecs.alloc(n)
	hidden := s.vecs.alloc(n)
	for t := range hidden {
		h := s.floats.alloc(2 * hw)
		copy(h, fwdSteps[t].h)
		copy(h[hw:], bwdSteps[n-1-t].h)
		hidden[t] = h
		probs[t] = s.floats.alloc(len(m.labels))
		copy(probs[t], m.outB)
	}
	m.out.MulVecsAdd(probs, hidden)
	for _, p := range probs {
		mat.Softmax(p, p)
	}
	if train {
		c.wordF, c.wordB = fwdSteps, bwdSteps
		c.hidden, c.probs = hidden, probs
	}
	return probs
}

// fwdCache is the forward-pass state of one owner — a training workspace or
// a predictor: the scratch every activation is carved from, plus what the
// owner keeps between passes or for backprop.
type fwdCache struct {
	sc scratch
	// memo maps a word to its char-BiLSTM output; set only by predictors.
	memo map[string][]float64
	// dropMask is the per-token inverted-dropout mask; set only in
	// training, where it also makes forwardProbs keep the activations below.
	dropMask [][]float64
	charF    [][]step
	charB    [][]step
	wordF    []step
	wordB    []step
	hidden   [][]float64
	probs    [][]float64
}

// resize returns xs with length n, reusing its array when it is big enough.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// Degenerate-training errors returned by Fit; both wrap
// tagger.ErrDegenerateTraining so the bootstrap engine can classify them
// without depending on this package's internals.
var errNoData = fmt.Errorf("lstm: empty training set: %w", tagger.ErrDegenerateTraining)
var errNoSpans = fmt.Errorf("lstm: training set has no labeled spans: %w", tagger.ErrDegenerateTraining)

// buildVocab collects word and char vocabularies (id 0 reserved for UNK) in
// deterministic order.
func buildVocab(train []tagger.Sequence, minCount int) (map[string]int, map[rune]int) {
	wc := make(map[string]int)
	cc := make(map[rune]int)
	for _, s := range train {
		for _, w := range s.Tokens {
			wc[w]++
			for _, r := range w {
				cc[r]++
			}
		}
	}
	var words []string
	for w, c := range wc {
		if c >= minCount {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	wv := make(map[string]int, len(words)+1)
	for i, w := range words {
		wv[w] = i + 1
	}
	var chars []rune
	for r := range cc {
		chars = append(chars, r)
	}
	sort.Slice(chars, func(i, j int) bool { return chars[i] < chars[j] })
	cv := make(map[rune]int, len(chars)+1)
	for i, r := range chars {
		cv[r] = i + 1
	}
	return wv, cv
}
