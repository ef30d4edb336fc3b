package crf

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// kernelValues decodes data into an endless stream of kernel inputs. Each
// data byte selects ±0, NaN, ±Inf, a denormal, a huge magnitude that
// overflows in products, or an ordinary fraction, so the fuzzer controls
// every special case. Once data runs out the stream continues from an RNG
// seeded by it with mostly ordinary inexact values, some zeros and rare
// specials: dense specials would turn every sum into NaN or Inf and hide a
// rounding difference.
type kernelValues struct {
	data []byte
	pos  int
	rng  *mat.RNG
}

func newKernelValues(data []byte) *kernelValues {
	seed := uint64(len(data)) + 1
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	return &kernelValues{data: data, rng: mat.NewRNG(seed)}
}

func (v *kernelValues) byte() byte {
	if v.pos < len(v.data) {
		v.pos++
		return v.data[v.pos-1]
	}
	return byte(v.rng.Uint64())
}

func (v *kernelValues) next() float64 {
	if v.pos < len(v.data) {
		return specialValue(v.byte())
	}
	r := v.rng.Uint64()
	switch {
	case r%8 == 0:
		return 0
	case r%128 == 1:
		return specialValue(byte(r >> 8))
	}
	return float64(int64(r>>11)%2000-1000) / 77
}

func specialValue(b byte) float64 {
	switch b % 16 {
	case 0, 1, 2:
		return 0
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.NaN()
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7:
		return math.Copysign(1e300, float64(int8(b)))
	case 8:
		return float64(int8(b)) * math.SmallestNonzeroFloat64 * 3
	}
	return float64(int8(b)) / 7
}

func (v *kernelValues) vec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v.next()
	}
	return out
}

// rows lists up to eight row indices below n, repeats allowed.
func (v *kernelValues) rows(n int) []int {
	out := make([]int, int(v.byte())%9)
	for i := range out {
		out[i] = int(v.byte()) % n
	}
	return out
}

// sameBits requires got and want to be Float64bits-equal, except that any
// NaN matches any NaN: which operand of a + or × comes first decides which
// NaN payload survives, and neither Go nor the assembly pins that. Every
// other bit, the sign of zero included, must match.
func sameBits(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
			continue
		}
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d = %v (%#x), Go reference %v (%#x)",
				kernel, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// FuzzObjectiveKernels is the differential check of the objective's label
// kernels: for label counts 1…40 (most not a multiple of the vector width)
// and values including zero rows, zero marginals, ±0, denormals, ±Inf and
// NaN, every kernel the dispatchers select must produce exactly the bits of
// its Go reference. The seed corpus under testdata/fuzz plants each special
// case where a kernel could get it wrong.
func FuzzObjectiveKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, labels uint8, data []byte) {
		L := int(labels)%40 + 1
		v := newKernelValues(data)
		prev, trans, emit := v.vec(L), v.vec(L*L), v.vec(L)

		got, want := make([]float64, L), make([]float64, L)
		forwardStep(got, prev, trans, emit)
		forwardStepGo(want, prev, trans, emit)
		sameBits(t, "forwardStep", got, want)

		c := v.next()
		forwardStepGo(want, prev, trans, emit) // a realistic next row
		backwardStep(got, want, trans, emit, c)
		ref := make([]float64, L)
		backwardStepGo(ref, want, trans, emit, c)
		sameBits(t, "backwardStep", got, ref)

		beta, invC := v.vec(L), v.next()
		dst := v.vec(L * L)
		ref = clone(dst)
		edgeStep(dst, prev, trans, emit, beta, invC)
		edgeStepGo(ref, prev, trans, emit, beta, invC)
		sameBits(t, "edgeStep", dst, ref)

		nRows := int(v.byte())%6 + 1
		table := v.vec(nRows * L)
		rows := v.rows(nRows)
		got = v.vec(L)
		want = clone(got)
		addRows(got, table, rows)
		addRowsGo(want, table, rows)
		sameBits(t, "addRows", got, want)

		marg := v.vec(L)
		ref = clone(table)
		addMarginalRows(table, marg, rows)
		addMarginalRowsGo(ref, marg, rows)
		sameBits(t, "addMarginalRows", table, ref)

		n := int(v.byte()) % 70
		x, y := v.vec(n), v.vec(n)
		ref = clone(y)
		a := v.next()
		axpy(a, x, y)
		axpyGo(a, x, ref)
		sameBits(t, "axpy", y, ref)
	})
}
