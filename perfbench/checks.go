package main

// The checks compare the program's outputs against computations made
// here, with plain loops that share no code with the kernels under
// test, or against properties the methods must have. checks_test.go
// feeds each one a deliberately broken output.

import (
	"fmt"
	"math"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/sparse"
)

// relErrTol is how far a reported relative error may sit from the one
// recomputed here. The program forms ‖A−WH‖² as ‖A‖² − 2⟨WᵀA,H⟩ +
// ⟨WᵀW,HHᵀ⟩, whose rounding stays many orders below this; a rel_err
// off by 1e-6 is rejected.
const relErrTol = 1e-8

// checkNonnegFinite rejects a negative or non-finite factor entry.
func checkNonnegFinite(name string, d *mat.Dense) error {
	for i, v := range d.Data {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s[%d,%d] = %g, want finite and ≥ 0", name, i/d.Cols, i%d.Cols, v)
		}
	}
	return nil
}

// dot is a plain-loop inner product.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// rowResidual2 adds ‖a_i − w_i·H‖² and ‖a_i‖² for one row of A.
func rowResidual2(arow, wrow []float64, h *mat.Dense) (res2, a2 float64) {
	k, n := h.Rows, h.Cols
	for j := 0; j < n; j++ {
		v := 0.0
		for l := 0; l < k; l++ {
			v += wrow[l] * h.Data[l*n+j]
		}
		d := arow[j] - v
		res2 += d * d
		a2 += arow[j] * arow[j]
	}
	return res2, a2
}

// denseRelErr is ‖A−WH‖_F/‖A‖_F from plain loops.
func denseRelErr(a, w, h *mat.Dense) float64 {
	res2, a2 := 0.0, 0.0
	for i := 0; i < a.Rows; i++ {
		r, s := rowResidual2(a.Row(i), w.Row(i), h)
		res2 += r
		a2 += s
	}
	return math.Sqrt(res2 / a2)
}

// tiledRelErr streams the tile file and computes ‖A−WH‖_F/‖A‖_F
// from plain loops, one panel in memory at a time.
func tiledRelErr(path string, w, h *mat.Dense) (float64, error) {
	f, err := ooc.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, n := f.Dims()
	buf := make([]float64, f.Header().MaxTileElems())
	res2, a2 := 0.0, 0.0
	for t := 0; t < f.Tiles(); t++ {
		r0, r1 := f.TileBounds(t)
		data, err := f.ReadTile(t, buf)
		if err != nil {
			return 0, err
		}
		for i := r0; i < r1; i++ {
			r, s := rowResidual2(data[(i-r0)*n:(i-r0+1)*n], w.Row(i), h)
			res2 += r
			a2 += s
		}
	}
	return math.Sqrt(res2 / a2), nil
}

// sparseRelErr is ‖A−WH‖_F/‖A‖_F for a CSR A, expanded as
// ‖A‖² − 2Σ_{nnz} a_ij·(w_i·h_j) + Σ_{l,l'} (WᵀW)_{ll'}(HHᵀ)_{ll'},
// every term from plain loops.
func sparseRelErr(a *sparse.CSR, w, h *mat.Dense) float64 {
	k, n := h.Rows, h.Cols
	a2, cross := 0.0, 0.0
	hcol := make([]float64, k)
	for i := 0; i < a.Rows; i++ {
		wrow := w.Row(i)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			for l := 0; l < k; l++ {
				hcol[l] = h.Data[l*n+j]
			}
			a2 += a.Val[p] * a.Val[p]
			cross += a.Val[p] * dot(wrow, hcol)
		}
	}
	wtw := plainGram(w)
	quad := 0.0
	for l := 0; l < k; l++ {
		for l2 := 0; l2 < k; l2++ {
			quad += wtw[l*k+l2] * dot(h.Row(l), h.Row(l2))
		}
	}
	v := a2 - 2*cross + quad
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v / a2)
}

// plainGram returns WᵀW (k×k, row-major) from plain loops.
func plainGram(w *mat.Dense) []float64 {
	k := w.Cols
	g := make([]float64, k*k)
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		for l := 0; l < k; l++ {
			for l2 := 0; l2 < k; l2++ {
				g[l*k+l2] += row[l] * row[l2]
			}
		}
	}
	return g
}

// checkRelErr compares a reported relative error with the recomputed
// one.
func checkRelErr(reported, recomputed float64) error {
	if math.Abs(reported-recomputed) > relErrTol {
		return fmt.Errorf("reported rel_err %.12g, recomputed %.12g (tolerance %g)", reported, recomputed, relErrTol)
	}
	return nil
}

// checkMonotone rejects a relative-error history that rises: exact
// ANLS and HALS both decrease the objective every iteration.
func checkMonotone(hist []float64) error {
	if len(hist) == 0 {
		return fmt.Errorf("empty rel_err history")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1]*(1+1e-12) {
			return fmt.Errorf("rel_err rose at iteration %d: %.12g → %.12g", i+1, hist[i-1], hist[i])
		}
	}
	return nil
}

// checkFloor rejects a fit whose error is more than factor times the
// planted floor ‖A−W₀H₀‖/‖A‖.
func checkFloor(relErr, floor, factor float64) error {
	if !(relErr <= factor*floor) {
		return fmt.Errorf("rel_err %.6g exceeds %g × planted floor %.6g", relErr, factor, floor)
	}
	return nil
}

// kktTol is the slack of the KKT checks, relative to each column's
// scale max|Wᵀa| + max|WᵀW|·max|h|.
const kktTol = 1e-7

// checkKKTColumn checks that h solves min_{h≥0} ‖Wh − a‖ given
// g = WᵀW (k×k row-major) and f = Wᵀa: h ≥ 0, the gradient Gh − f is
// ≥ 0, and it vanishes wherever h > 0.
func checkKKTColumn(g, f, h []float64) error {
	k := len(h)
	gmax, fmax, hmax := 0.0, 0.0, 0.0
	for _, v := range g {
		gmax = math.Max(gmax, math.Abs(v))
	}
	for i := 0; i < k; i++ {
		fmax = math.Max(fmax, math.Abs(f[i]))
		hmax = math.Max(hmax, math.Abs(h[i]))
	}
	tol := kktTol * (fmax + gmax*hmax)
	for i := 0; i < k; i++ {
		if !(h[i] >= 0) {
			return fmt.Errorf("h[%d] = %g < 0", i, h[i])
		}
		grad := dot(g[i*k:(i+1)*k], h) - f[i]
		if grad < -tol || (h[i] > 0 && math.Abs(grad) > tol) {
			return fmt.Errorf("KKT violated at component %d: h = %g, gradient = %g (tolerance %g)", i, h[i], grad, tol)
		}
	}
	return nil
}

// checkKKT checks every column of H against its NNLS subproblem
// min_{h≥0} ‖W h − a_j‖ for a dense A.
func checkKKT(a, w, h *mat.Dense) error {
	k, n := h.Rows, h.Cols
	g := plainGram(w)
	// F = WᵀA accumulated row by row of A.
	f := make([]float64, k*n)
	for i := 0; i < a.Rows; i++ {
		arow, wrow := a.Row(i), w.Row(i)
		for l := 0; l < k; l++ {
			wl := wrow[l]
			frow := f[l*n : (l+1)*n]
			for j, v := range arow {
				frow[j] += wl * v
			}
		}
	}
	fc, hc := make([]float64, k), make([]float64, k)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			fc[l], hc[l] = f[l*n+j], h.Data[l*n+j]
		}
		if err := checkKKTColumn(g, fc, hc); err != nil {
			return fmt.Errorf("H column %d: %w", j, err)
		}
	}
	return nil
}

// checkProjection checks one served projection of column c onto W:
// h has length k, is non-negative and finite, the reported residual
// equals ‖c − Wh‖/‖c‖, and h meets the KKT conditions of
// min_{h≥0} ‖Wh − c‖. g is WᵀW from plainGram.
func checkProjection(w *mat.Dense, g, c, h []float64, resid float64) error {
	k := w.Cols
	if len(h) != k {
		return fmt.Errorf("h has length %d, want %d", len(h), k)
	}
	f := make([]float64, k)
	r2, c2 := 0.0, 0.0
	for i := 0; i < w.Rows; i++ {
		wrow := w.Row(i)
		d := c[i] - dot(wrow, h)
		r2 += d * d
		c2 += c[i] * c[i]
		for l := 0; l < k; l++ {
			f[l] += wrow[l] * c[i]
		}
	}
	for i, v := range h {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("h[%d] = %g, want finite and ≥ 0", i, v)
		}
	}
	want := math.Sqrt(r2 / c2)
	// Compare squares: the served residual comes from ‖c‖² − 2hᵀf +
	// hᵀGh, whose cancellation error is absolute in the square.
	if math.Abs(resid*resid-want*want) > 1e-10 {
		return fmt.Errorf("reported residual %.12g, recomputed %.12g", resid, want)
	}
	return checkKKTColumn(g, f, h)
}

// checkRecovery checks that a projection of an exact column c = W₀h₀
// recovered h₀.
func checkRecovery(h, h0 []float64) error {
	d2, n2 := 0.0, 0.0
	for i := range h0 {
		d := h[i] - h0[i]
		d2 += d * d
		n2 += h0[i] * h0[i]
	}
	if math.Sqrt(d2) > 1e-6*math.Sqrt(n2) {
		return fmt.Errorf("recovered h is %.3g away from h₀ (‖h₀‖ = %.3g)", math.Sqrt(d2), math.Sqrt(n2))
	}
	return nil
}

// topicPurity assigns each document j to the component c maximizing
// H[c,j]·Σ_i W[i,c] and returns the smallest share, over components
// with documents, of the component's documents whose planted topic
// (j·topics/docs) is the component's majority topic.
func topicPurity(w, h *mat.Dense, topics int) float64 {
	k, docs := h.Rows, h.Cols
	colSum := make([]float64, k)
	for i := 0; i < w.Rows; i++ {
		for c, v := range w.Row(i) {
			colSum[c] += v
		}
	}
	counts := make([][]int, k)
	for c := range counts {
		counts[c] = make([]int, topics)
	}
	for j := 0; j < docs; j++ {
		best, bestV := 0, -1.0
		for c := 0; c < k; c++ {
			if v := h.Data[c*docs+j] * colSum[c]; v > bestV {
				best, bestV = c, v
			}
		}
		counts[best][j*topics/docs]++
	}
	minShare := 1.0
	for _, cs := range counts {
		total, top := 0, 0
		for _, n := range cs {
			total += n
			top = max(top, n)
		}
		if total > 0 {
			minShare = math.Min(minShare, float64(top)/float64(total))
		}
	}
	return minShare
}

// checkPurity rejects a topic model whose components mix planted
// topics.
func checkPurity(w, h *mat.Dense, topics int, minShare float64) error {
	if p := topicPurity(w, h, topics); p < minShare {
		return fmt.Errorf("topic purity %.3f below %.2f", p, minShare)
	}
	return nil
}
