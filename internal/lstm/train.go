package lstm

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/faultinject"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tagger"
)

// Trainer fits BiLSTM models. It implements tagger.Trainer.
type Trainer struct {
	Config Config
	// Ctx, when non-nil, cancels training between epochs (and every few
	// hundred sentences within one); Fit then returns the context's error.
	Ctx context.Context
	// Inject is the optional fault-injection hook; it poisons the epoch
	// loss at faultinject.StageLSTMEpoch to exercise the divergence guard.
	// Nil in production.
	Inject *faultinject.Injector
	// Obs, when non-nil, receives the training trajectory: the summed
	// sentence NLL per epoch as a series, and vocabulary sizes as gauges.
	Obs *obs.Recorder
	// ObsScope namespaces this fit's series (e.g. "iter03"), keeping
	// trajectories of successive bootstrap retrainings distinguishable.
	ObsScope string
}

// Fit trains the network with deterministic mini-batch SGD, dropout on the
// token representation, and global gradient-norm clipping. Each batch runs
// forward/backward for its sentences in parallel (Config.Workers bounds the
// fan-out) against the batch-start weights, then applies the per-sentence
// updates, every parameter receiving them in batch order — so the trained
// weights are bit-identical for every Workers value. After every epoch the summed
// sentence NLL is checked: a NaN/Inf loss aborts training with an error
// wrapping tagger.ErrDiverged so garbage weights never tag the corpus.
func (tr Trainer) Fit(train []tagger.Sequence) (tagger.Model, error) {
	cfg := tr.Config.withDefaults()
	if len(train) == 0 {
		return nil, errNoData
	}
	labels := tagger.LabelSet(train)
	if len(labels) < 2 {
		return nil, errNoSpans
	}
	labelIdx := make(map[string]int, len(labels))
	for i, l := range labels {
		labelIdx[l] = i
	}
	wv, cv := buildVocab(train, cfg.MinCount)
	scope := tr.ObsScope
	if scope == "" {
		scope = "fit"
	}
	tr.Obs.Set("lstm.word_vocab", float64(len(wv)))
	tr.Obs.Set("lstm.char_vocab", float64(len(cv)))
	tr.Obs.Set("lstm.labels", float64(len(labels)))

	rng := mat.NewRNG(cfg.Seed)
	repDim := cfg.WordDim + 2*cfg.CharHidden
	m := &Model{
		cfg: cfg, labels: labels, labelIdx: labelIdx,
		wordVocab: wv, charVocab: cv,
		wordEmb: mat.New(len(wv)+1, cfg.WordDim),
		charEmb: mat.New(len(cv)+1, cfg.CharDim),
		charFwd: newCell(cfg.CharDim, cfg.CharHidden, rng),
		charBwd: newCell(cfg.CharDim, cfg.CharHidden, rng),
		wordFwd: newCell(repDim, cfg.WordHidden, rng),
		wordBwd: newCell(repDim, cfg.WordHidden, rng),
		out:     mat.New(len(labels), 2*cfg.WordHidden),
		outB:    make([]float64, len(labels)),
	}
	m.wordEmb.Uniform(rng, -0.1, 0.1)
	m.charEmb.Uniform(rng, -0.1, 0.1)
	m.out.Xavier(rng)

	// Skip empty sentences once instead of per epoch.
	seqs := make([]tagger.Sequence, 0, len(train))
	for _, s := range train {
		if len(s.Tokens) > 0 {
			seqs = append(seqs, s)
		}
	}
	// One workspace per batch slot, reused across batches and epochs. Slot j
	// always serves the j-th sentence of the current batch, so the parallel
	// phase writes disjoint buffers and the apply phase can walk them in
	// batch order.
	slots := cfg.Batch
	if slots > len(seqs) && len(seqs) > 0 {
		slots = len(seqs)
	}
	wss := make([]*workspace, slots)
	for j := range wss {
		wss[j] = newWorkspace(m)
	}
	up := newUpdater(m, wss)
	// Activations live only while a sentence runs, so each worker keeps one
	// forward cache rather than each batch slot.
	caches := make([]fwdCache, min(par.Workers(cfg.Workers), slots))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if tr.Ctx != nil {
			if err := tr.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		lr := cfg.Rate / (1 + cfg.Decay*float64(epoch))
		order := rng.Perm(len(seqs))
		var loss float64
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			// Draw each sentence's dropout seed from the main stream in
			// batch order, so the masks do not depend on worker scheduling.
			for j := range batch {
				wss[j].maskSeed = rng.Uint64()
			}
			err := par.ForEachWorker(tr.Ctx, cfg.Workers, len(batch), func(wk, j int) error {
				if err := tr.Inject.Fire(faultinject.StageLSTMBatch); err != nil {
					return err
				}
				wss[j].gradSentence(seqs[batch[j]], mat.NewRNG(wss[j].maskSeed), &caches[wk])
				return nil
			})
			if err != nil {
				return nil, err
			}
			for j := range batch {
				loss += wss[j].nll
			}
			if err := up.apply(tr.Ctx, cfg.Workers, len(batch), lr); err != nil {
				return nil, err
			}
		}
		if tr.Inject.Poison(faultinject.StageLSTMEpoch) {
			loss = math.NaN()
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return nil, fmt.Errorf("lstm: epoch %d loss = %v: %w", epoch, loss, tagger.ErrDiverged)
		}
		tr.Obs.SeriesAdd("lstm."+scope+".epoch_nll", epoch, loss)
		tr.Obs.Add("lstm.epochs", 1)
		tr.Obs.Debug("lstm epoch", "scope", scope, "epoch", epoch, "nll", loss, "rate", lr)
	}
	// The parallelism knob is a property of the machine that trained, not of
	// the model; drop it so saved artifacts are identical across machines.
	m.cfg.Workers = 0
	return m, nil
}

// workspace holds one sentence's gradient accumulators: cell grads, output
// layer, and touched embedding rows. Each batch slot owns a workspace, so
// concurrent gradSentence calls share only the read-only model weights.
type workspace struct {
	model    *Model
	gCharFwd *cellGrad
	gCharBwd *cellGrad
	gWordFwd *cellGrad
	gWordBwd *cellGrad
	gOut     *mat.Matrix
	gOutB    []float64
	gWordEmb map[int][]float64
	gCharEmb map[int][]float64
	embRows  arena[float64] // backs the gWordEmb and gCharEmb rows
	// wids and cids list the touched embedding rows in ascending order.
	wids, cids []int
	maskSeed   uint64  // dropout seed of the sentence currently in the slot
	nll        float64 // NLL of that sentence under the batch-start weights
	norm2      float64 // squared global norm of its gradients
}

func newWorkspace(m *Model) *workspace {
	return &workspace{
		model:    m,
		gCharFwd: newCellGrad(m.charFwd),
		gCharBwd: newCellGrad(m.charBwd),
		gWordFwd: newCellGrad(m.wordFwd),
		gWordBwd: newCellGrad(m.wordBwd),
		gOut:     mat.New(m.out.Rows, m.out.Cols),
		gOutB:    make([]float64, len(m.outB)),
		gWordEmb: make(map[int][]float64),
		gCharEmb: make(map[int][]float64),
	}
}

// gradSentence runs forward and backward for one sentence, leaving the
// gradients and their squared norm in the workspace and the sentence's
// negative log-likelihood in w.nll. It only reads the model, so distinct
// workspaces may run concurrently, each with its own activation cache c;
// rng drives the dropout masks and is private to the call.
func (w *workspace) gradSentence(seq tagger.Sequence, rng *mat.RNG, c *fwdCache) {
	m := w.model
	cfg := m.cfg
	c.sc.reset()
	n := len(seq.Tokens)
	repDim := cfg.WordDim + 2*cfg.CharHidden
	c.dropMask = resize(c.dropMask, n)
	keep := 1 - cfg.Dropout
	for t := range c.dropMask {
		mask := c.sc.floats.alloc(repDim)
		for j := range mask {
			if rng.Float64() < keep {
				mask[j] = 1 / keep // inverted dropout
			}
		}
		c.dropMask[t] = mask
	}
	m.forwardProbs(seq.Tokens, c)

	var nll float64
	for t := 0; t < n && t < len(seq.Labels); t++ {
		if y, ok := m.labelIdx[seq.Labels[t]]; ok {
			// A poisoned or overflowed forward pass yields NaN probabilities,
			// which propagate through the log into the epoch sum.
			nll -= math.Log(c.probs[t][y])
		}
	}
	w.nll = nll
	w.backprop(seq, c)
}

// backprop runs the backward pass over the activations forwardProbs left in
// c, replacing the workspace's gradients with the sentence's, and records
// their squared global norm.
func (w *workspace) backprop(seq tagger.Sequence, c *fwdCache) {
	m := w.model
	cfg := m.cfg
	s := &c.sc
	n := len(seq.Tokens)

	w.gCharFwd.zero()
	w.gCharBwd.zero()
	w.gWordFwd.zero()
	w.gWordBwd.zero()
	w.gOut.Zero()
	mat.ZeroVec(w.gOutB)
	clear(w.gWordEmb)
	clear(w.gCharEmb)
	w.embRows.reset()

	// Output layer gradient: dlogits = p − onehot(gold).
	hw := cfg.WordHidden
	dlogits := s.vecs.alloc(n)
	dhs := s.vecs.alloc(n)
	dhFwd := s.vecs.alloc(n)
	dhBwd := s.vecs.alloc(n) // indexed in reversed order for wordBwd
	for t := range dlogits {
		dl := s.floats.alloc(len(m.labels))
		copy(dl, c.probs[t])
		if t < len(seq.Labels) {
			if y, ok := m.labelIdx[seq.Labels[t]]; ok {
				dl[y]--
			}
		}
		mat.Axpy(1, dl, w.gOutB)
		dh := s.floats.alloc(2 * hw)
		dlogits[t], dhs[t] = dl, dh
		dhFwd[t] = dh[:hw]
		dhBwd[n-1-t] = dh[hw:]
	}
	w.gOut.RankOneAddSeq(dlogits, c.hidden)
	m.out.MulVecTSeq(dhs, dlogits)
	dRepFwd := m.wordFwd.backward(s, w.gWordFwd, c.wordF, dhFwd)
	dRepBwdRev := m.wordBwd.backward(s, w.gWordBwd, c.wordB, dhBwd)

	// Combine the two directions' input gradients, undo dropout, and split
	// into word-embedding and char-representation parts.
	wd, hc := cfg.WordDim, cfg.CharHidden
	zero := s.floats.alloc(hc)
	for t, tok := range seq.Tokens {
		dRep := dRepFwd[t]
		mat.Axpy(1, dRepBwdRev[n-1-t], dRep)
		for j := range dRep {
			dRep[j] *= c.dropMask[t][j]
		}
		mat.Axpy(1, dRep[:wd], w.embGrad(w.gWordEmb, m.wordID(tok), wd))

		nf := len(c.charF[t])
		if nf == 0 {
			continue
		}
		// Char BiLSTM: gradient lands only on the final step of each
		// direction.
		dhF := s.vecs.alloc(nf)
		dhB := s.vecs.alloc(nf)
		for k := range dhF {
			dhF[k], dhB[k] = zero, zero
		}
		dhF[nf-1] = dRep[wd : wd+hc]
		dhB[nf-1] = dRep[wd+hc:]
		dxF := m.charFwd.backward(s, w.gCharFwd, c.charF[t], dhF)
		dxB := m.charBwd.backward(s, w.gCharBwd, c.charB[t], dhB)
		k := 0
		for _, r := range tok {
			acc := w.embGrad(w.gCharEmb, m.charVocab[r], cfg.CharDim)
			mat.Axpy(1, dxF[k], acc)
			mat.Axpy(1, dxB[nf-1-k], acc)
			k++
		}
	}
	w.norm2 = w.gradNorm2()
}

// embGrad returns the gradient accumulator of embedding row id in grads,
// carving a zeroed one on first use.
func (w *workspace) embGrad(grads map[int][]float64, id, dim int) []float64 {
	acc, ok := grads[id]
	if !ok {
		acc = w.embRows.alloc(dim)
		grads[id] = acc
	}
	return acc
}

// gradNorm2 returns the squared global norm of the workspace's gradients
// and leaves the touched embedding rows sorted in wids and cids. Sorting
// fixes the floating-point accumulation order, so the clip scale is
// identical across runs.
func (w *workspace) gradNorm2() float64 {
	norm2 := w.gCharFwd.norm2Sq() + w.gCharBwd.norm2Sq() +
		w.gWordFwd.norm2Sq() + w.gWordBwd.norm2Sq()
	for _, v := range w.gOut.Data {
		norm2 += v * v
	}
	for _, v := range w.gOutB {
		norm2 += v * v
	}
	w.wids = sortedKeys(w.wids, w.gWordEmb)
	w.cids = sortedKeys(w.cids, w.gCharEmb)
	for _, id := range w.wids {
		for _, v := range w.gWordEmb[id] {
			norm2 += v * v
		}
	}
	for _, id := range w.cids {
		for _, v := range w.gCharEmb[id] {
			norm2 += v * v
		}
	}
	return norm2
}

func sortedKeys(dst []int, m map[int][]float64) []int {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// applyBlock is the number of parameters one apply work item updates.
const applyBlock = 4096

// updater applies a batch's SGD steps to the model. The dense parameters
// (cell weights and biases, output layer) are split into element ranges
// that workers update concurrently, each range taking the sentences'
// updates in batch order; the sparse embedding rows follow serially, also
// in batch order. Every parameter thus receives exactly the updates, in
// exactly the order, of applying one sentence at a time.
type updater struct {
	model  *Model
	wss    []*workspace
	params [][]float64   // the model's dense parameters
	grads  [][][]float64 // grads[j][p] is workspace j's gradient of params[p]
	blocks []block
	steps  []float64 // per-sentence step size of the current batch
}

// block is the element range [lo, hi) of dense parameter p.
type block struct{ p, lo, hi int }

func newUpdater(m *Model, wss []*workspace) *updater {
	u := &updater{model: m, wss: wss, params: m.denseParams(), steps: make([]float64, len(wss))}
	for _, w := range wss {
		u.grads = append(u.grads, w.denseGrads())
	}
	for p, param := range u.params {
		for lo := 0; lo < len(param); lo += applyBlock {
			u.blocks = append(u.blocks, block{p, lo, min(lo+applyBlock, len(param))})
		}
	}
	return u
}

// denseParams lists the model's dense parameters; denseGrads lists a
// workspace's gradients in the same order.
func (m *Model) denseParams() [][]float64 {
	var ps [][]float64
	for _, c := range []*cell{m.charFwd, m.charBwd, m.wordFwd, m.wordBwd} {
		ps = append(ps, c.wx.Data, c.wh.Data, c.b)
	}
	return append(ps, m.out.Data, m.outB)
}

func (w *workspace) denseGrads() [][]float64 {
	var gs [][]float64
	for _, g := range []*cellGrad{w.gCharFwd, w.gCharBwd, w.gWordFwd, w.gWordBwd} {
		gs = append(gs, g.wx.Data, g.wh.Data, g.b)
	}
	return append(gs, w.gOut.Data, w.gOutB)
}

// apply performs the SGD steps of the first n workspaces with learning rate
// lr, each clipped by its sentence's global gradient norm, on at most
// workers goroutines. It returns ctx's error if ctx is canceled first; the
// weights are then partly updated and must be discarded.
func (u *updater) apply(ctx context.Context, workers, n int, lr float64) error {
	m := u.model
	for j, w := range u.wss[:n] {
		scale := 1.0
		if norm := math.Sqrt(w.norm2); norm > m.cfg.ClipNorm {
			scale = m.cfg.ClipNorm / norm
		}
		u.steps[j] = lr * scale
	}
	err := par.ForEach(ctx, workers, len(u.blocks), func(i int) error {
		b := u.blocks[i]
		dst := u.params[b.p][b.lo:b.hi]
		for j, step := range u.steps[:n] {
			mat.Axpy(-step, u.grads[j][b.p][b.lo:b.hi], dst)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for j, w := range u.wss[:n] {
		step := u.steps[j]
		for _, wid := range w.wids {
			mat.Axpy(-step, w.gWordEmb[wid], m.wordEmb.Row(wid))
		}
		for _, cid := range w.cids {
			mat.Axpy(-step, w.gCharEmb[cid], m.charEmb.Row(cid))
		}
	}
	return nil
}
