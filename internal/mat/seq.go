package mat

// This file holds the sequence kernels of the BiLSTM: the same products as
// MulVecAdd, RankOneAdd and MulVecT, applied to every timestep of a sentence
// in one pass. Each weight row is loaded once for up to four timesteps, while
// every output element keeps its own accumulator and receives its terms in
// exactly the order the per-step kernel would add them, so the results are
// bit-identical to the per-step loops they replace.

// tile is the number of timesteps that share one load of a matrix row.
const tile = 4

// MulVecsAdd computes dst[t] += m · xs[t] for every t. It equals calling
// MulVecAdd(dst[t], xs[t]) for each t, bit for bit: each output sums its
// row's products in column order from zero and then adds the sum to dst.
// The dst vectors must be distinct and must not alias any x.
func (m *Matrix) MulVecsAdd(dst, xs [][]float64) {
	if len(dst) != len(xs) {
		panic("mat: MulVecsAdd length mismatch")
	}
	for t := range xs {
		if len(xs[t]) != m.Cols || len(dst[t]) != m.Rows {
			panic("mat: MulVecsAdd dimension mismatch")
		}
	}
	t := 0
	for ; t+tile <= len(xs); t += tile {
		x0, x1, x2, x3 := xs[t], xs[t+1], xs[t+2], xs[t+3]
		d0, d1, d2, d3 := dst[t], dst[t+1], dst[t+2], dst[t+3]
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			x0, x1, x2, x3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
			var s0, s1, s2, s3 float64
			for j, w := range row {
				s0 += w * x0[j]
				s1 += w * x1[j]
				s2 += w * x2[j]
				s3 += w * x3[j]
			}
			d0[i] += s0
			d1[i] += s1
			d2[i] += s2
			d3[i] += s3
		}
	}
	for ; t < len(xs); t++ {
		m.MulVecAddTiled(dst[t], xs[t])
	}
}

// MulVecAddTiled computes dst += m · x. It equals MulVecAdd bit for bit,
// but four rows share each load of x and their independent sums overlap in
// the pipeline, which suits the latency-bound recurrent product of an LSTM.
func (m *Matrix) MulVecAddTiled(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVecAddTiled dimension mismatch")
	}
	i := 0
	for ; i+tile <= m.Rows; i += tile {
		r0 := m.Data[i*m.Cols : (i+1)*m.Cols]
		r1, r2, r3 := m.Row(i + 1)[:len(r0)], m.Row(i + 2)[:len(r0)], m.Row(i + 3)[:len(r0)]
		x := x[:len(r0)]
		var s0, s1, s2, s3 float64
		for j, w := range r0 {
			xj := x[j]
			s0 += w * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i] += s0
		dst[i+1] += s1
		dst[i+2] += s2
		dst[i+3] += s3
	}
	for ; i < m.Rows; i++ {
		var s float64
		for j, w := range m.Row(i) {
			s += w * x[j]
		}
		dst[i] += s
	}
}

// RankOneAddSeq accumulates the outer products xs[k]·ys[k]ᵀ into m for
// k = 0, 1, … in slice order. It equals calling RankOneAdd(1, xs[k], ys[k])
// for each k in turn, bit for bit: every element receives its terms in k
// order, and a zero xs[k][i] adds nothing to row i.
func (m *Matrix) RankOneAddSeq(xs, ys [][]float64) {
	if len(xs) != len(ys) {
		panic("mat: RankOneAddSeq length mismatch")
	}
	for k := range xs {
		if len(xs[k]) != m.Rows || len(ys[k]) != m.Cols {
			panic("mat: RankOneAddSeq dimension mismatch")
		}
	}
	var q gather
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for k, x := range xs {
			if x[i] != 0 {
				q.add(row, x[i], ys[k])
			}
		}
		q.flush(row)
	}
}

// MulVecTTiled computes dst += mᵀ · x. It equals MulVecT bit for bit: every
// output receives its terms in row order and a zero x[i] skips row i, but
// each output is loaded and stored once per four rows.
func (m *Matrix) MulVecTTiled(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecTTiled dimension mismatch")
	}
	var q gather
	for i, xi := range x {
		if xi != 0 {
			q.add(dst, xi, m.Row(i))
		}
	}
	q.flush(dst)
}

// MulVecTSeq computes dst[k] += mᵀ · xs[k] for every k. It equals calling
// MulVecT(dst[k], xs[k]) for each k, bit for bit: every output receives its
// terms in row order, and a zero xs[k][i] skips row i for that k. The dst
// vectors must be distinct and must not alias any x.
func (m *Matrix) MulVecTSeq(dst, xs [][]float64) {
	if len(dst) != len(xs) {
		panic("mat: MulVecTSeq length mismatch")
	}
	for k := range xs {
		if len(xs[k]) != m.Rows || len(dst[k]) != m.Cols {
			panic("mat: MulVecTSeq dimension mismatch")
		}
	}
	var q scatter
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for k, x := range xs {
			if x[i] != 0 {
				q.add(row, x[i], dst[k])
			}
		}
		q.flush(row)
	}
}

// gather queues up to tile scaled vectors a·v bound for one output vector
// and adds them element by element in queue order:
// dst[j] = ((dst[j] + a₀·v₀[j]) + a₁·v₁[j]) + …, so dst is loaded and
// stored once per tile instead of once per term.
type gather struct {
	a [tile]float64
	v [tile][]float64
	n int
}

func (q *gather) add(dst []float64, a float64, v []float64) {
	q.a[q.n], q.v[q.n] = a, v
	if q.n++; q.n == tile {
		q.flush(dst)
	}
}

func (q *gather) flush(dst []float64) {
	a0, a1, a2, a3 := q.a[0], q.a[1], q.a[2], q.a[3]
	switch q.n {
	case 4:
		v0, v1, v2, v3 := q.v[0][:len(dst)], q.v[1][:len(dst)], q.v[2][:len(dst)], q.v[3][:len(dst)]
		for j := range dst {
			dst[j] = dst[j] + a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
		}
	case 3:
		v0, v1, v2 := q.v[0][:len(dst)], q.v[1][:len(dst)], q.v[2][:len(dst)]
		for j := range dst {
			dst[j] = dst[j] + a0*v0[j] + a1*v1[j] + a2*v2[j]
		}
	case 2:
		v0, v1 := q.v[0][:len(dst)], q.v[1][:len(dst)]
		for j := range dst {
			dst[j] = dst[j] + a0*v0[j] + a1*v1[j]
		}
	case 1:
		v0 := q.v[0][:len(dst)]
		for j := range dst {
			dst[j] += a0 * v0[j]
		}
	}
	q.n = 0
}

// scatter queues up to tile (scale, output) pairs that one source vector w
// feeds and adds a·w[j] to each output element by element, loading w[j]
// once per tile.
type scatter struct {
	a [tile]float64
	d [tile][]float64
	n int
}

func (q *scatter) add(w []float64, a float64, d []float64) {
	q.a[q.n], q.d[q.n] = a, d
	if q.n++; q.n == tile {
		q.flush(w)
	}
}

func (q *scatter) flush(w []float64) {
	a0, a1, a2, a3 := q.a[0], q.a[1], q.a[2], q.a[3]
	switch q.n {
	case 4:
		d0, d1, d2, d3 := q.d[0][:len(w)], q.d[1][:len(w)], q.d[2][:len(w)], q.d[3][:len(w)]
		for j, wj := range w {
			d0[j] += a0 * wj
			d1[j] += a1 * wj
			d2[j] += a2 * wj
			d3[j] += a3 * wj
		}
	case 3:
		d0, d1, d2 := q.d[0][:len(w)], q.d[1][:len(w)], q.d[2][:len(w)]
		for j, wj := range w {
			d0[j] += a0 * wj
			d1[j] += a1 * wj
			d2[j] += a2 * wj
		}
	case 2:
		d0, d1 := q.d[0][:len(w)], q.d[1][:len(w)]
		for j, wj := range w {
			d0[j] += a0 * wj
			d1[j] += a1 * wj
		}
	case 1:
		d0 := q.d[0][:len(w)]
		for j, wj := range w {
			d0[j] += a0 * wj
		}
	}
	q.n = 0
}
