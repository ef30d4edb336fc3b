//go:build !amd64

package crf

// Without the amd64 assembly, useAVX2 stays false and the dispatchers in
// kernels.go always run the Go reference kernels; these stubs only satisfy
// the compiler.

func haveAVX2() bool { return false }

func forwardStepAVX2(cur, prev, trans, emit []float64) { panic(noAsm) }

func backwardStepAVX2(cur, next, transT, emit []float64, c float64) { panic(noAsm) }

func edgeStepAVX2(dst, aPrev, trans, emit, beta []float64, invC float64) { panic(noAsm) }

func addRowsAVX2(dst, table []float64, rows []int) { panic(noAsm) }

func addMarginalRowsAVX2(table, marg []float64, rows []int) { panic(noAsm) }

func axpyAVX2(a float64, x, y []float64) { panic(noAsm) }

const noAsm = "crf: AVX2 kernels are amd64-only"
