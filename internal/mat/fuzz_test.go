package mat

import (
	"math"
	"testing"
)

// fuzzValues decodes data into an endless stream of kernel inputs: special
// values (±0, NaN, ±Inf, huge magnitudes that overflow in products) mixed
// with ordinary fractions. Once data runs out the stream continues from an
// RNG seeded by it, so short inputs still fill large shapes.
type fuzzValues struct {
	data []byte
	pos  int
	rng  *RNG
}

func newFuzzValues(data []byte) *fuzzValues {
	seed := uint64(len(data)) + 1
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	return &fuzzValues{data: data, rng: NewRNG(seed)}
}

func (v *fuzzValues) next() float64 {
	var b byte
	if v.pos < len(v.data) {
		b = v.data[v.pos]
		v.pos++
	} else {
		b = byte(v.rng.Uint64())
	}
	switch b % 16 {
	case 0, 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.Copysign(1e300, float64(int8(b)))
	}
	return float64(int8(b)) / 7
}

func (v *fuzzValues) vecs(n, dim int) [][]float64 {
	out := make([][]float64, n)
	for k := range out {
		out[k] = make([]float64, dim)
		for j := range out[k] {
			out[k][j] = v.next()
		}
	}
	return out
}

func cloneVecs(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for k, x := range xs {
		out[k] = append([]float64(nil), x...)
	}
	return out
}

// sameBits requires got and want to be Float64bits-equal, except that any
// NaN matches any NaN: Go may commute the operands of + and *, and on amd64
// which operand comes first decides which NaN payload survives, so not even
// the per-step kernels pin NaN payloads. Every other bit, the sign of zero
// included, must match.
func sameBits(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
			continue
		}
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d = %v (%#x), per-step reference %v (%#x)",
				kernel, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// FuzzTiledKernels is the differential check of the sequence kernels: on
// random shapes, timestep counts (including fewer than a tile and counts not
// divisible by it) and values (±0, NaN, ±Inf, overflow), every tiled kernel
// must produce exactly the bits of the per-step kernel it replaces.
func FuzzTiledKernels(f *testing.F) {
	f.Add(uint8(8), uint8(5), uint8(7), []byte{})
	f.Add(uint8(3), uint8(2), uint8(1), []byte{2, 3, 0, 4, 17, 33, 1, 2})
	f.Add(uint8(12), uint8(9), uint8(4), []byte{6, 6, 6, 6, 5, 4, 200, 100})
	f.Add(uint8(5), uint8(5), uint8(0), []byte{9})
	f.Fuzz(func(t *testing.T, rows, cols, steps uint8, data []byte) {
		r, c, n := int(rows)%17+1, int(cols)%17+1, int(steps)%14
		v := newFuzzValues(data)
		m := FromSlice(r, c, v.vecs(1, r*c)[0])
		xs := v.vecs(n, c)  // inputs, one per timestep
		dzs := v.vecs(n, r) // output-side vectors, one per timestep
		acc := v.vecs(n, r) // prior contents of forward outputs
		grad := v.vecs(1, r*c)[0]

		got, want := cloneVecs(acc), cloneVecs(acc)
		m.MulVecsAdd(got, xs)
		for k := range want {
			m.MulVecAdd(want[k], xs[k])
		}
		for k := range want {
			sameBits(t, "MulVecsAdd", got[k], want[k])
		}

		gm := FromSlice(r, c, append([]float64(nil), grad...))
		wm := FromSlice(r, c, append([]float64(nil), grad...))
		gm.RankOneAddSeq(dzs, xs)
		for k := range dzs {
			wm.RankOneAdd(1, dzs[k], xs[k])
		}
		sameBits(t, "RankOneAddSeq", gm.Data, wm.Data)

		dxGot := v.vecs(n, c)
		dxWant := cloneVecs(dxGot)
		m.MulVecTSeq(dxGot, dzs)
		for k := range dzs {
			m.MulVecT(dxWant[k], dzs[k])
		}
		for k := range dxWant {
			sameBits(t, "MulVecTSeq", dxGot[k], dxWant[k])
		}

		for k := range xs {
			d, e := append([]float64(nil), acc[k]...), append([]float64(nil), acc[k]...)
			m.MulVecAddTiled(d, xs[k])
			m.MulVecAdd(e, xs[k])
			sameBits(t, "MulVecAddTiled", d, e)

			dt, et := append([]float64(nil), dxGot[k]...), append([]float64(nil), dxGot[k]...)
			m.MulVecTTiled(dt, dzs[k])
			m.MulVecT(et, dzs[k])
			sameBits(t, "MulVecTTiled", dt, et)
		}
	})
}
