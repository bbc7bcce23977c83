package main

import (
	"math"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

// planted is a non-negative low-rank model A ≈ W₀H₀ plus clamped
// Gaussian noise, generated row by row so a tile file can be written
// without holding A.
type planted struct {
	w0, h0 *mat.Dense // m×r and r×n, entries uniform in [0,1)
	sigma  float64    // noise standard deviation
	seed   uint64
}

func newPlanted(m, n, r int, sigma float64, seed uint64) *planted {
	s := rng.New(seed)
	p := &planted{w0: mat.NewDense(m, r), h0: mat.NewDense(r, n), sigma: sigma, seed: seed}
	p.w0.RandomUniform(s)
	p.h0.RandomUniform(s)
	return p
}

// rows emits A row by row (the row slice is reused) and returns the
// planted floor ‖A − W₀H₀‖_F/‖A‖_F.
func (p *planted) rows(emit func(i int, row []float64) error) (float64, error) {
	m, n, r := p.w0.Rows, p.h0.Cols, p.w0.Cols
	s := rng.New(p.seed ^ 0x5bd1e995)
	row := make([]float64, n)
	noise2, a2 := 0.0, 0.0
	for i := 0; i < m; i++ {
		for j := range row {
			row[j] = 0
		}
		wrow := p.w0.Row(i)
		for l := 0; l < r; l++ {
			mat.Axpy(row, p.h0.Row(l), wrow[l])
		}
		for j, clean := range row {
			v := clean + p.sigma*s.Normal()
			if v < 0 {
				v = 0
			}
			row[j] = v
			noise2 += (v - clean) * (v - clean)
			a2 += v * v
		}
		if err := emit(i, row); err != nil {
			return 0, err
		}
	}
	return math.Sqrt(noise2 / a2), nil
}

// dense materializes A and returns it with the planted floor.
func (p *planted) dense() (*mat.Dense, float64) {
	a := mat.NewDense(p.w0.Rows, p.h0.Cols)
	floor, _ := p.rows(func(i int, row []float64) error {
		copy(a.Row(i), row)
		return nil
	})
	return a, floor
}

// heldOut returns c new columns drawn from the same model (fresh
// coefficients, same noise): the data a caller folds into a fitted
// basis.
func (p *planted) heldOut(c int, seed uint64) *mat.Dense {
	s := rng.New(seed)
	m, r := p.w0.Rows, p.w0.Cols
	h := mat.NewDense(r, c)
	h.RandomUniform(s)
	cols := mat.Mul(p.w0, h)
	for i := 0; i < m*c; i++ {
		v := cols.Data[i] + p.sigma*s.Normal()
		if v < 0 {
			v = 0
		}
		cols.Data[i] = v
	}
	return cols
}
