package crf

import "math"

// encodedSeq is a sequence pre-interned for training/inference: feature ids
// per position and (for training data) gold label ids.
type encodedSeq struct {
	feats  [][]int
	labels []int
}

// potentials holds exp(w) of every transition weight in two layouts. They
// depend only on the weights, so one table serves every sequence scored
// against the same weights; run only reads it, which lets any number of fb
// workspaces share it.
type potentials struct {
	exp  []float64 // (L+1)·L, row-major by previous label; the last row is BOS
	expT []float64 // L·L, exp's label rows transposed: expT[q·L+y] = exp[y·L+q]
}

// transPotentials fills the potentials of trans, a model with L labels,
// into dst, allocating it when dst is nil; a non-nil dst must come from the
// same model. The transposed table is a copy of the same values, so both
// layouts hold identical bits.
func transPotentials(dst *potentials, trans []float64, L int) *potentials {
	if dst == nil {
		dst = &potentials{exp: make([]float64, len(trans)), expT: make([]float64, L*L)}
	}
	for i, w := range trans {
		dst.exp[i] = math.Exp(w)
	}
	for y := 0; y < L; y++ {
		for q := 0; q < L; q++ {
			dst.expT[q*L+y] = dst.exp[y*L+q]
		}
	}
	return dst
}

// fb holds the scaled forward–backward workspace for one sequence. Buffers
// are reused across sequences to keep the training loop allocation-free
// after warm-up.
//
// Scaling follows Rabiner: alphaHat rows are normalised to sum 1 with scale
// factors c_t, betaHat is divided by the same factors, so that the state
// marginal is alphaHat*betaHat and the edge marginal carries an extra
// 1/c_{t+1}.
type fb struct {
	L       int
	alpha   []float64 // n*L, scaled forward
	beta    []float64 // n*L, scaled backward
	scale   []float64 // n, the c_t factors
	emit    []float64 // n*L, raw emission scores
	emitExp []float64 // n*L, exp(emission - rowmax)
	emitMax []float64 // n, per-position emission max (for logZ)
	marg    []float64 // L, state-marginal scratch
	logZ    float64
}

func newFB(L int) *fb { return &fb{L: L, marg: make([]float64, L)} }

func (f *fb) resize(n int) {
	need := n * f.L
	if cap(f.alpha) < need {
		f.alpha = make([]float64, need)
		f.beta = make([]float64, need)
		f.emit = make([]float64, need)
		f.emitExp = make([]float64, need)
	}
	f.alpha = f.alpha[:need]
	f.beta = f.beta[:need]
	f.emit = f.emit[:need]
	f.emitExp = f.emitExp[:need]
	if cap(f.scale) < n {
		f.scale = make([]float64, n)
		f.emitMax = make([]float64, n)
	}
	f.scale = f.scale[:n]
	f.emitMax = f.emitMax[:n]
}

// run executes scaled forward–backward over the first n positions of enc and
// stores the raw emission scores, alpha, beta, scale and logZ. pot holds the
// transition potentials of m.trans; run never writes it.
func (f *fb) run(m *Model, pot *potentials, enc *encodedSeq, n int) {
	L := f.L
	f.resize(n)
	// Emission potentials with per-position max subtraction for stability.
	for t := 0; t < n; t++ {
		scores := f.emit[t*L : (t+1)*L]
		m.emissionScores(scores, enc.feats[t])
		maxS := scores[0]
		for _, s := range scores[1:] {
			if s > maxS {
				maxS = s
			}
		}
		f.emitMax[t] = maxS
		row := f.emitExp[t*L : (t+1)*L]
		for y, s := range scores {
			row[y] = math.Exp(s - maxS)
		}
	}
	// Forward.
	trans := pot.exp[:L*L]
	bos := pot.exp[L*L:]
	var logZ float64
	a0 := f.alpha[:L]
	var c float64
	for y := 0; y < L; y++ {
		a0[y] = f.emitExp[y] * bos[y]
		c += a0[y]
	}
	if c == 0 {
		c = 1e-300
	}
	inv := 1 / c
	for y := range a0 {
		a0[y] *= inv
	}
	f.scale[0] = c
	logZ = math.Log(c) + f.emitMax[0]
	for t := 1; t < n; t++ {
		cur := f.alpha[t*L : (t+1)*L]
		forwardStep(cur, f.alpha[(t-1)*L:t*L], trans, f.emitExp[t*L:(t+1)*L])
		c = 0
		for _, v := range cur {
			c += v
		}
		if c == 0 {
			c = 1e-300
		}
		inv = 1 / c
		for y := range cur {
			cur[y] *= inv
		}
		f.scale[t] = c
		logZ += math.Log(c) + f.emitMax[t]
	}
	f.logZ = logZ
	// Backward.
	last := f.beta[(n-1)*L : n*L]
	for y := range last {
		last[y] = 1
	}
	for t := n - 2; t >= 0; t-- {
		backwardStep(f.beta[t*L:(t+1)*L], f.beta[(t+1)*L:(t+2)*L], pot.expT,
			f.emitExp[(t+1)*L:(t+2)*L], f.scale[t+1])
	}
}
