package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hpcnmf"
	"hpcnmf/internal/core"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
)

// dense-2d: the paper's headline dense case. A planted rank-40 matrix
// factorized at k = 40 by 2D HPC-NMF with BPP on two ranks, so the
// dense MM kernels, BPP and the 2D collectives all carry time. At
// k = 50 the ten spare components fit noise, and how much BPP work
// they cost varied with the seed: fit_s and the fold-in latencies
// spread twice as wide over seeds as at k = 40.
const (
	denseM, denseN, denseR, denseK = 4000, 2000, 40, 40
	denseIters                     = 6
	denseSigma                     = 0.5
	// denseFloorFactor bounds the final rel_err against the planted
	// floor; six BPP iterations from a random start land within it.
	denseFloorFactor = 1.05
)

func runDense2D(e *env) error {
	return runFitWorkload(e, func(e *env) (*fitCase, error) {
		t := time.Now()
		p := newPlanted(denseM, denseN, denseR, denseSigma, e.seed)
		a, floor := p.dense()
		fold := p.heldOut(foldCols, e.seed+1)
		gen := time.Since(t)
		am := hpcnmf.WrapDense(a)
		opts := fitOpts(denseK, denseIters, core.SolverBPP, 1, e.seed)
		return &fitCase{
			k:     denseK,
			gen:   gen,
			input: fmt.Sprintf("dense %dx%d, planted rank %d, planted floor %.6g", denseM, denseN, denseR, floor),
			fit:   func() (*core.Result, error) { return hpcnmf.RunParallel(am, 2, opts) },
			check: func(res *core.Result) error {
				if err := checkDenseFit(res, denseRelErr(a, res.W, res.H), floor, denseFloorFactor); err != nil {
					return err
				}
				// H is updated last, by an exact solver: it must sit at
				// the KKT point of its NNLS subproblem given W.
				return checkKKT(a, res.W, res.H)
			},
			fold: fold,
			layers: func(e *env, res *core.Result, fitS float64) error {
				return replay2D(e, am, res, fitS, opts, fold)
			},
			close: func() {},
		}, nil
	})
}

// sparse-topics: the text-mining case on the sparse path. A
// bag-of-words term–document matrix with fewer planted topics than
// components, factorized by 2D HPC-NMF with HALS on two ranks. With 10
// topics at k = 20, HALS from a random start merged two topics into
// one component on 3 of 8 seeds (at 12 and at 30 iterations); with 5
// topics it kept them apart on every seed tried.
const (
	topicsVocab, topicsDocs, topicsTopics, topicsDocLen = 30000, 30000, 5, 120
	topicsK                                             = 20
	topicsIters                                         = 12
	// topicsMinPurity is the share of each component's documents that
	// must come from its majority planted topic.
	topicsMinPurity = 0.9
)

func runSparseTopics(e *env) error {
	return runFitWorkload(e, func(e *env) (*fitCase, error) {
		t := time.Now()
		spec := datasets.BagOfWordsSpec{Vocab: topicsVocab, Docs: topicsDocs, Topics: topicsTopics, DocLen: topicsDocLen}
		a := datasets.BagOfWords(spec, e.seed)
		heldSpec := spec
		heldSpec.Docs = foldCols
		fold := datasets.BagOfWords(heldSpec, e.seed+1).ToDense()
		gen := time.Since(t)
		am := hpcnmf.WrapSparse(a)
		opts := fitOpts(topicsK, topicsIters, core.SolverHALS, 1, e.seed)
		return &fitCase{
			k:     topicsK,
			gen:   gen,
			input: fmt.Sprintf("CSR %dx%d, %d nonzeros, %d topics", a.Rows, a.Cols, a.NNZ(), topicsTopics),
			fit:   func() (*core.Result, error) { return hpcnmf.RunParallel(am, 2, opts) },
			check: func(res *core.Result) error {
				if err := checkNonnegFinite("W", res.W); err != nil {
					return err
				}
				if err := checkNonnegFinite("H", res.H); err != nil {
					return err
				}
				if err := checkRelErr(res.RelErr[len(res.RelErr)-1], sparseRelErr(a, res.W, res.H)); err != nil {
					return err
				}
				if err := checkMonotone(res.RelErr); err != nil {
					return err
				}
				return checkPurity(res.W, res.H, topicsTopics, topicsMinPurity)
			},
			fold: fold,
			layers: func(e *env, res *core.Result, fitS float64) error {
				return replay2D(e, am, res, fitS, opts, fold)
			},
			close: func() {},
		}, nil
	})
}

// tiled-stream: out-of-core factorization of a planted dense matrix
// streamed from a tile file through the prefetch pipeline, one rank,
// two kernel threads, HALS.
const (
	tiledM, tiledN, tiledR, tiledK = 12000, 2000, 24, 32
	tiledIters                     = 4
	tiledSigma                     = 0.3
	tiledFloorFactor               = 2
)

func runTiledStream(e *env) error {
	return runFitWorkload(e, func(e *env) (*fitCase, error) {
		t := time.Now()
		p := newPlanted(tiledM, tiledN, tiledR, tiledSigma, e.seed)
		fold := p.heldOut(foldCols, e.seed+1)
		path := filepath.Join(e.dir, "a.tiles")
		_ = os.Remove(path)
		w, err := ooc.Create(path, tiledM, tiledN, ooc.DefaultTileRows(tiledN))
		if err != nil {
			return nil, err
		}
		var write time.Duration
		floor, err := p.rows(func(_ int, row []float64) error {
			t := time.Now()
			err := w.WriteRow(row)
			write += time.Since(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if err := w.Close(); err != nil {
			return nil, err
		}
		write += time.Since(t2)
		gen := time.Since(t) - write
		f, err := hpcnmf.OpenTiled(path)
		if err != nil {
			return nil, err
		}
		opts := fitOpts(tiledK, tiledIters, core.SolverHALS, 2, e.seed)
		return &fitCase{
			k:     tiledK,
			gen:   gen,
			write: write,
			input: fmt.Sprintf("tile file %dx%d, %d tiles of %d rows, %d bytes, planted floor %.6g",
				tiledM, tiledN, f.Tiles(), f.Header().TileRows, f.Header().FileSize(), floor),
			fit: func() (*core.Result, error) { return hpcnmf.RunOutOfCore(f, 0, opts) },
			check: func(res *core.Result) error {
				re, err := tiledRelErr(path, res.W, res.H)
				if err != nil {
					return err
				}
				if err := checkDenseFit(res, re, floor, tiledFloorFactor); err != nil {
					return err
				}
				return checkInCoreMatch(f, res, opts)
			},
			fold: fold,
			layers: func(e *env, res *core.Result, fitS float64) error {
				return replayTiled(e, f, res, fitS, opts, fold)
			},
			close: func() { f.Close() },
		}, nil
	})
}

// checkInCoreMatch loads the tile file into memory and checks that an
// in-core Run with the same options gives bitwise the same factors and
// error history, as the out-of-core driver promises.
func checkInCoreMatch(f *ooc.File, res *core.Result, opts core.Options) error {
	a, err := loadTiles(f)
	if err != nil {
		return err
	}
	in, err := hpcnmf.Run(hpcnmf.WrapDense(a), opts)
	if err != nil {
		return fmt.Errorf("in-core reference fit: %w", err)
	}
	if err := sameFit(in, res); err != nil {
		return fmt.Errorf("out-of-core fit differs from the in-core one: %w", err)
	}
	return nil
}

// loadTiles reads a whole tile file into memory.
func loadTiles(f *ooc.File) (*mat.Dense, error) {
	m, n := f.Dims()
	a := mat.NewDense(m, n)
	buf := make([]float64, f.Header().MaxTileElems())
	for t := 0; t < f.Tiles(); t++ {
		r0, r1 := f.TileBounds(t)
		data, err := f.ReadTile(t, buf)
		if err != nil {
			return nil, err
		}
		copy(a.Data[r0*n:r1*n], data)
	}
	return a, nil
}
