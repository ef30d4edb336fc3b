package crf

// The objective's label loops, as kernels. Each kernel updates every label
// y on its own, so a vector implementation that runs lanes across y keeps
// every element's expression and summation order, and with them the bits
// (DESIGN.md §10.2). The Go functions below (suffix Go) are the reference:
// plain loops that define each kernel's per-element expression and order.
// On amd64 with AVX2 the dispatchers call assembly versions
// (kernels_amd64.s) that compute the same floats; elsewhere, or when the
// CPU check fails, they call the Go functions.

// useAVX2 selects the assembly kernels. It is set once at init from the CPU
// check; only tests change it, to run the Go reference kernels end to end.
var useAVX2 = haveAVX2()

// forwardStep sets cur[y] = (Σ_p prev[p]·trans[p·L+y])·emit[y], summed from
// zero in p order. A row whose prev[p] is zero is skipped, since 0·Inf
// would add a NaN.
func forwardStep(cur, prev, trans, emit []float64) {
	L := len(cur)
	_, _, _ = prev[:L], trans[:L*L], emit[:L]
	if useAVX2 {
		forwardStepAVX2(cur, prev, trans, emit)
		return
	}
	forwardStepGo(cur, prev, trans, emit)
}

func forwardStepGo(cur, prev, trans, emit []float64) {
	L := len(cur)
	for y := 0; y < L; y++ {
		cur[y] = 0
	}
	for p := 0; p < L; p++ {
		ap := prev[p]
		if ap == 0 {
			continue
		}
		trow := trans[p*L : (p+1)*L]
		for y := 0; y < L; y++ {
			cur[y] += ap * trow[y]
		}
	}
	for y := 0; y < L; y++ {
		cur[y] *= emit[y]
	}
}

// backwardStep sets cur[y] = (Σ_q (trans[y·L+q]·emit[q])·next[q]) / c,
// summed from zero in q order. It reads the transposed table, transT[q·L+y]
// = trans[y·L+q], so that consecutive labels y are adjacent in memory.
func backwardStep(cur, next, transT, emit []float64, c float64) {
	L := len(cur)
	_, _, _ = next[:L], transT[:L*L], emit[:L]
	if useAVX2 {
		backwardStepAVX2(cur, next, transT, emit, c)
		return
	}
	backwardStepGo(cur, next, transT, emit, c)
}

func backwardStepGo(cur, next, transT, emit []float64, c float64) {
	L := len(cur)
	for y := 0; y < L; y++ {
		var s float64
		for q := 0; q < L; q++ {
			s += transT[q*L+y] * emit[q] * next[q]
		}
		cur[y] = s / c
	}
}

// edgeStep adds the edge marginals of one position into dst (L·L, row-major
// by previous label): dst[p·L+y] += (((aPrev[p]·trans[p·L+y])·emit[y])·
// beta[y])·invC. A row whose aPrev[p] is zero is skipped.
func edgeStep(dst, aPrev, trans, emit, beta []float64, invC float64) {
	L := len(aPrev)
	_, _, _, _ = dst[:L*L], trans[:L*L], emit[:L], beta[:L]
	if useAVX2 {
		edgeStepAVX2(dst, aPrev, trans, emit, beta, invC)
		return
	}
	edgeStepGo(dst, aPrev, trans, emit, beta, invC)
}

func edgeStepGo(dst, aPrev, trans, emit, beta []float64, invC float64) {
	L := len(aPrev)
	for p := 0; p < L; p++ {
		ap := aPrev[p]
		if ap == 0 {
			continue
		}
		trow := trans[p*L : (p+1)*L]
		drow := dst[p*L : (p+1)*L]
		for y := 0; y < L; y++ {
			drow[y] += ap * trow[y] * emit[y] * beta[y] * invC
		}
	}
}

// addRows adds rows of table, a matrix with len(dst) columns, into dst in
// the order rows lists them: dst[y] += table[r·L+y].
func addRows(dst, table []float64, rows []int) {
	checkRows(len(table), len(dst), rows)
	if useAVX2 {
		addRowsAVX2(dst, table, rows)
		return
	}
	addRowsGo(dst, table, rows)
}

func addRowsGo(dst, table []float64, rows []int) {
	L := len(dst)
	for _, r := range rows {
		row := table[r*L : (r+1)*L]
		for y, w := range row {
			dst[y] += w
		}
	}
}

// addMarginalRows adds marg into each listed row of table, a matrix with
// len(marg) columns: table[r·L+y] += marg[y], except that a zero marginal
// is skipped, never added as +0 (which would turn a -0 into +0).
func addMarginalRows(table, marg []float64, rows []int) {
	checkRows(len(table), len(marg), rows)
	if useAVX2 {
		addMarginalRowsAVX2(table, marg, rows)
		return
	}
	addMarginalRowsGo(table, marg, rows)
}

func addMarginalRowsGo(table, marg []float64, rows []int) {
	L := len(marg)
	for _, r := range rows {
		dst := table[r*L : (r+1)*L]
		for y, p := range marg {
			if p == 0 {
				continue
			}
			dst[y] += p
		}
	}
}

// addVec sets dst[i] += src[i].
func addVec(dst, src []float64) {
	addRows(dst, src[:len(dst)], firstRow[:])
}

var firstRow = [1]int{0}

// axpy sets y[i] += a·x[i].
func axpy(a float64, x, y []float64) {
	_ = y[:len(x)]
	if useAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

func axpyGo(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// checkRows panics unless every listed row lies inside a table of n
// elements with L columns: the assembly kernels index without bounds
// checks.
func checkRows(n, L int, rows []int) {
	if L == 0 {
		return
	}
	limit := uint(n / L)
	for _, r := range rows {
		if uint(r) >= limit {
			panic("crf: kernel row out of range")
		}
	}
}
