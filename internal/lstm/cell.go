// Package lstm implements the recurrent sequence tagger the paper evaluates
// against the CRF: a NeuroNER-style network with a character-level BiLSTM
// feeding a word-level BiLSTM and a per-token softmax, trained with plain
// SGD and dropout. Everything — cells, backpropagation through time,
// embeddings — is implemented here on top of internal/mat.
//
// Training and inference are bit-exact against the straightforward
// per-timestep formulation: the sequence kernels of internal/mat keep every
// summation order, and DESIGN.md states which orders are fixed.
package lstm

import (
	"math"

	"repro/internal/mat"
)

// cell is one directional LSTM with input size din and hidden size h. The
// four gates are packed input|forget|cell|output into 4h-row matrices.
type cell struct {
	din, h int
	wx     *mat.Matrix // 4h × din
	wh     *mat.Matrix // 4h × h
	b      []float64   // 4h
}

func newCell(din, h int, rng *mat.RNG) *cell {
	c := &cell{
		din: din, h: h,
		wx: mat.New(4*h, din),
		wh: mat.New(4*h, h),
		b:  make([]float64, 4*h),
	}
	c.wx.Xavier(rng)
	c.wh.Xavier(rng)
	// Forget-gate bias starts at 1 so early training does not wash out the
	// cell state — the standard LSTM initialisation trick.
	for j := h; j < 2*h; j++ {
		c.b[j] = 1
	}
	return c
}

// arena hands out zeroed slices carved from one backing array and takes
// them all back at once with reset. After a pass that overflowed, reset
// grows the array to the pass's total, so a workspace or predictor soon
// reaches a steady state in which a sentence allocates nothing. A slice
// stays valid until the next reset.
type arena[T any] struct {
	buf  []T
	off  int
	used int // elements handed out since the last reset
}

func (a *arena[T]) alloc(n int) []T {
	if a.off+n > len(a.buf) {
		// Slices already handed out keep the old array alive. Growing by
		// half of what the pass used so far bounds the waste of an
		// overflowing pass, which reset then folds into one array.
		a.buf = make([]T, max(n, a.used/2, 64))
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	a.used += n
	clear(s)
	return s
}

func (a *arena[T]) reset() {
	if a.used > len(a.buf) {
		a.buf = make([]T, a.used)
	}
	a.off, a.used = 0, 0
}

// scratch is the arena set one sentence's forward and backward passes draw
// from: vectors, vector lists and timestep caches.
type scratch struct {
	floats arena[float64]
	vecs   arena[[]float64]
	steps  arena[step]
}

func (s *scratch) reset() {
	s.floats.reset()
	s.vecs.reset()
	s.steps.reset()
}

// reversed returns xs in reverse order, carved from s; it runs the backward
// direction of a BiLSTM with the same cell code.
func (s *scratch) reversed(xs [][]float64) [][]float64 {
	out := s.vecs.alloc(len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// step holds the forward cache of one timestep, needed by backprop.
type step struct {
	x          []float64 // input (not owned)
	i, f, g, o []float64 // gate activations
	c, tc      []float64 // cell state and tanh(cell state)
	h          []float64 // output
}

// forward runs the cell over xs and returns the per-timestep caches, carved
// from s. prevH/prevC start at zero. The input projections b + Wx·xₜ of all
// timesteps come first, in one tiled pass; only Wh·hₜ₋₁ stays in the
// recurrence, so zₜ = (b + Wx·xₜ) + Wh·hₜ₋₁ sums in the per-step order.
func (c *cell) forward(s *scratch, xs [][]float64) []step {
	h := c.h
	steps := s.steps.alloc(len(xs))
	zs := s.vecs.alloc(len(xs))
	for t := range xs {
		// The gates overwrite z in place: i|f|g|o, then c, tanh(c) and h.
		buf := s.floats.alloc(7 * h)
		copy(buf, c.b)
		zs[t] = buf[:4*h]
		steps[t] = step{
			x: xs[t],
			i: buf[:h], f: buf[h : 2*h], g: buf[2*h : 3*h], o: buf[3*h : 4*h],
			c: buf[4*h : 5*h], tc: buf[5*h : 6*h], h: buf[6*h:],
		}
	}
	c.wx.MulVecsAdd(zs, xs)
	for t := range steps {
		st, z := &steps[t], zs[t]
		var prevC []float64
		if t > 0 {
			c.wh.MulVecAddTiled(z, steps[t-1].h)
			prevC = steps[t-1].c
		}
		for j := 0; j < h; j++ {
			st.i[j] = mat.Sigmoid(z[j])
			st.f[j] = mat.Sigmoid(z[h+j])
			st.g[j] = math.Tanh(z[2*h+j])
			st.o[j] = mat.Sigmoid(z[3*h+j])
			cp := 0.0
			if prevC != nil {
				cp = prevC[j]
			}
			st.c[j] = st.f[j]*cp + st.i[j]*st.g[j]
			st.tc[j] = math.Tanh(st.c[j])
			st.h[j] = st.o[j] * st.tc[j]
		}
	}
	return steps
}

// cellGrad is one set of gradient accumulators for a cell. Gradients live
// outside the cell so several goroutines can backpropagate through the same
// (read-only) weights concurrently, each into a private cellGrad.
type cellGrad struct {
	wx *mat.Matrix // 4h × din
	wh *mat.Matrix // 4h × h
	b  []float64   // 4h
}

func newCellGrad(c *cell) *cellGrad {
	return &cellGrad{
		wx: mat.New(4*c.h, c.din),
		wh: mat.New(4*c.h, c.h),
		b:  make([]float64, 4*c.h),
	}
}

// zero clears the accumulated gradients.
func (g *cellGrad) zero() {
	g.wx.Zero()
	g.wh.Zero()
	mat.ZeroVec(g.b)
}

// norm2Sq returns the squared Euclidean norm of all gradients, used for
// global norm clipping.
func (g *cellGrad) norm2Sq() float64 {
	var s float64
	for _, v := range g.wx.Data {
		s += v * v
	}
	for _, v := range g.wh.Data {
		s += v * v
	}
	for _, v := range g.b {
		s += v * v
	}
	return s
}

// backward runs BPTT over the cached steps. dh[t] is the gradient flowing
// into h_t from the layers above; the returned dx[t], carved from s, is the
// gradient on the input at t. Parameter gradients accumulate into g; the
// cell itself is only read, so concurrent backward calls with distinct
// grads are safe.
//
// Only the recurrent terms run per step. dWx += dzₜxₜᵀ, dWh += dzₜhₜ₋₁ᵀ and
// dxₜ = Wxᵀdzₜ need nothing from the recurrence, so they run after the time
// loop as tiled passes that give every element its terms in the per-step
// order, t = n-1 … 0.
func (c *cell) backward(s *scratch, g *cellGrad, steps []step, dh [][]float64) [][]float64 {
	h, n := c.h, len(steps)
	// Index k is the k-th step the loop visits, t = n-1-k.
	dzs := s.vecs.alloc(n)
	xs := s.vecs.alloc(n)
	prevHs := s.vecs.alloc(n)
	dxs := s.vecs.alloc(n)
	dhNext := s.floats.alloc(h) // gradient on h_t from t+1
	dcNext := s.floats.alloc(h)
	for k := range steps {
		t := n - 1 - k
		st := steps[t]
		var prevH, prevC []float64
		if t > 0 {
			prevH, prevC = steps[t-1].h, steps[t-1].c
		}
		dz := s.floats.alloc(4 * h)
		for j := 0; j < h; j++ {
			dhj := dh[t][j] + dhNext[j]
			do := dhj * st.tc[j]
			dc := dcNext[j] + dhj*st.o[j]*(1-st.tc[j]*st.tc[j])
			di := dc * st.g[j]
			dg := dc * st.i[j]
			cp := 0.0
			if prevC != nil {
				cp = prevC[j]
			}
			df := dc * cp
			dcNext[j] = dc * st.f[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[h+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*h+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*h+j] = do * st.o[j] * (1 - st.o[j])
		}
		mat.Axpy(1, dz, g.b)
		dzs[k], xs[k], prevHs[k] = dz, st.x, prevH
		dxs[k] = s.floats.alloc(c.din)
		mat.ZeroVec(dhNext)
		if prevH != nil {
			c.wh.MulVecTTiled(dhNext, dz)
		}
	}
	if n > 0 {
		g.wx.RankOneAddSeq(dzs, xs)
		g.wh.RankOneAddSeq(dzs[:n-1], prevHs[:n-1])
		c.wx.MulVecTSeq(dxs, dzs)
	}
	return s.reversed(dxs)
}
