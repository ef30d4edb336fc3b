package crf

// The assembly kernels in kernels_amd64.s. Each is a NOSPLIT leaf that
// runs four labels per YMM register and finishes L mod 4 labels with scalar
// instructions. Multiplies and adds are separate VMULPD/VADDPD (or
// VMULSD/VADDSD) instructions, never FMA, so every element is rounded
// exactly where the Go reference rounds it. The dispatchers in kernels.go
// check the slice lengths; the kernels trust them.

//go:noescape
func forwardStepAVX2(cur, prev, trans, emit []float64)

//go:noescape
func backwardStepAVX2(cur, next, transT, emit []float64, c float64)

//go:noescape
func edgeStepAVX2(dst, aPrev, trans, emit, beta []float64, invC float64)

//go:noescape
func addRowsAVX2(dst, table []float64, rows []int)

//go:noescape
func addMarginalRowsAVX2(table, marg []float64, rows []int)

//go:noescape
func axpyAVX2(a float64, x, y []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (OSXSAVE set and XCR0 enabling
// both the SSE and AVX state).
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
