package main

import (
	"math"
	"path/filepath"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// exactCase returns W (m×k) and a non-negative H₀ (k×n) with zeros,
// and A = W·H₀ exactly: H₀ is then the unique NNLS solution for A
// given W, with a zero gradient everywhere.
func exactCase(m, n, k int, seed uint64) (a, w, h0 *mat.Dense) {
	s := rng.New(seed)
	w = mat.NewDense(m, k)
	w.RandomUniform(s)
	h0 = mat.NewDense(k, n)
	for i := range h0.Data {
		if s.Float64() < 0.6 {
			h0.Data[i] = s.Float64()
		}
	}
	return mat.Mul(w, h0), w, h0
}

func TestCheckNonnegFiniteRejectsNegativeEntry(t *testing.T) {
	_, w, _ := exactCase(20, 10, 4, 1)
	if err := checkNonnegFinite("W", w); err != nil {
		t.Fatalf("clean factor rejected: %v", err)
	}
	w.Set(3, 2, -1e-12)
	if checkNonnegFinite("W", w) == nil {
		t.Fatal("negative entry accepted")
	}
	w.Set(3, 2, math.NaN())
	if checkNonnegFinite("W", w) == nil {
		t.Fatal("NaN entry accepted")
	}
}

func TestCheckKKTRejectsMovedH(t *testing.T) {
	a, w, h := exactCase(60, 30, 5, 2)
	if err := checkKKT(a, w, h); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	for _, idx := range []int{0, 7, 31} { // positive and zero entries alike
		moved := h.Clone()
		moved.Data[idx] += 1e-3
		if checkKKT(a, w, moved) == nil {
			t.Fatalf("H moved at entry %d accepted", idx)
		}
	}
}

func TestCheckRelErrRejectsOffByOneMillionth(t *testing.T) {
	a, w, h := exactCase(40, 30, 4, 3)
	s := rng.New(9)
	for i := range a.Data {
		a.Data[i] += 0.05 * s.Float64()
	}
	re := denseRelErr(a, w, h)
	if err := checkRelErr(re, re); err != nil {
		t.Fatal(err)
	}
	if checkRelErr(re+1e-6, re) == nil || checkRelErr(re-1e-6, re) == nil {
		t.Fatal("rel_err off by 1e-6 accepted")
	}

	// The three recomputations agree on the same matrix.
	if got := sparseRelErr(sparse.FromDense(a), w, h); math.Abs(got-re) > 1e-12 {
		t.Fatalf("sparse recomputation %.15g, dense %.15g", got, re)
	}
	path := filepath.Join(t.TempDir(), "a.tiles")
	if err := ooc.WriteMatrix(path, a, 7); err != nil {
		t.Fatal(err)
	}
	got, err := tiledRelErr(path, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-re) > 1e-12 {
		t.Fatalf("tiled recomputation %.15g, dense %.15g", got, re)
	}
}

func TestCheckMonotoneAndFloor(t *testing.T) {
	if err := checkMonotone([]float64{0.5, 0.4, 0.4, 0.3}); err != nil {
		t.Fatal(err)
	}
	if checkMonotone([]float64{0.5, 0.4, 0.41}) == nil {
		t.Fatal("rising history accepted")
	}
	if err := checkFloor(0.104, 0.1, 1.05); err != nil {
		t.Fatal(err)
	}
	if checkFloor(0.106, 0.1, 1.05) == nil {
		t.Fatal("error above the floor factor accepted")
	}
}

func TestCheckProjectionRejectsMovedH(t *testing.T) {
	_, w, h0 := exactCase(50, 1, 6, 4)
	c := mat.Mul(w, h0).Data
	g := plainGram(w)
	h := append([]float64(nil), h0.Data...)
	if err := checkProjection(w, g, c, h, 0); err != nil {
		t.Fatalf("exact projection rejected: %v", err)
	}
	if err := checkRecovery(h, h0.Data); err != nil {
		t.Fatal(err)
	}
	moved := append([]float64(nil), h...)
	moved[2] += 1e-3
	if checkRecovery(moved, h0.Data) == nil {
		t.Fatal("h away from h₀ accepted by the recovery check")
	}
	if checkProjection(w, g, c, moved, residual(w, c, moved)) == nil {
		t.Fatal("h off its KKT point accepted")
	}
	if checkProjection(w, g, c, h, 1e-3) == nil {
		t.Fatal("wrong residual accepted")
	}
	if checkProjection(w, g, c, h[:5], 0) == nil {
		t.Fatal("short h accepted")
	}
	neg := append([]float64(nil), h...)
	neg[0] = -1e-9
	if checkProjection(w, g, c, neg, residual(w, c, neg)) == nil {
		t.Fatal("negative h accepted")
	}
}

// residual is ‖c − Wh‖/‖c‖.
func residual(w *mat.Dense, c, h []float64) float64 {
	r2, c2 := 0.0, 0.0
	for i := 0; i < w.Rows; i++ {
		d := c[i] - dot(w.Row(i), h)
		r2 += d * d
		c2 += c[i] * c[i]
	}
	return math.Sqrt(r2 / c2)
}

func TestCheckPurityRejectsShuffledColumns(t *testing.T) {
	// Four planted topics over 40 documents, each owning a block of
	// the vocabulary and one component; document j belongs to topic
	// j·4/40.
	const topics, docs, vocab = 4, 40, 20
	w := mat.NewDense(vocab, topics)
	h := mat.NewDense(topics, docs)
	for i := 0; i < vocab; i++ {
		w.Set(i, i*topics/vocab, 1)
	}
	for j := 0; j < docs; j++ {
		h.Set(j*topics/docs, j, 1+float64(j%3))
	}
	if err := checkPurity(w, h, topics, 0.9); err != nil {
		t.Fatalf("pure model rejected: %v", err)
	}
	// Shuffle H's columns: documents land in components regardless of
	// their planted topic.
	perm := rng.New(5).Perm(docs)
	shuffled := mat.NewDense(topics, docs)
	for j, p := range perm {
		for c := 0; c < topics; c++ {
			shuffled.Set(c, j, h.At(c, p))
		}
	}
	if checkPurity(w, shuffled, topics, 0.9) == nil {
		t.Fatal("shuffled H accepted")
	}
}
