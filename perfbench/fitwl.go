package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/trace"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// setupTimes collects the set-up repetitions' wall and CPU seconds.
type setupTimes struct{ wall, cpu []float64 }

// time runs one set-up repetition.
func (s *setupTimes) time(fn func() error) error {
	c0, t := cpuSeconds(), time.Now()
	err := fn()
	s.wall = append(s.wall, time.Since(t).Seconds())
	s.cpu = append(s.cpu, cpuSeconds()-c0)
	return err
}

// report prints both medians and reports the CPU one as setup_s: wall
// time on the reference host moved with the CPU time the hypervisor
// stole (see README.md), CPU time did not.
func (s *setupTimes) report(e *env) {
	fmt.Printf("set-up: %d repetitions, median wall %.4g s, CPU %.4g s\n", len(s.wall), median(s.wall), median(s.cpu))
	e.add("setup_s", "s", median(s.cpu))
}

// Fold-in load per round of a fit workload: foldSingles one-column
// projections and foldBatches 32-column ones, against the basis the
// round's fit produced. The columns are a held-out set of foldCols
// columns, used in the same order every round; the batches cover all
// of them.
const (
	foldCols    = 256
	foldSingles = 128
	foldBatches = foldCols / batchCols
	batchCols   = 32
)

// fitCase is a fit workload's generated input and the operations the
// timed loop runs on it.
type fitCase struct {
	k int
	// fit runs one factorization.
	fit func() (*core.Result, error)
	// check verifies a fit's output against the benchmark's own
	// computations.
	check func(res *core.Result) error
	// fold holds the held-out columns the fitted basis absorbs.
	fold *mat.Dense
	// layers measures the per-layer metrics (traced runs only).
	layers func(e *env, res *core.Result, fitS float64) error
	// close releases files the case holds open.
	close func()
	// gen and write time the set-up's input generation and tile
	// writing.
	gen, write time.Duration
	// input describes the generated input.
	input string
}

// setupFit builds a case; runFitWorkload times it setupReps times.
type setupFit func(e *env) (*fitCase, error)

// roundStats is what one timed loop measured.
type roundStats struct {
	fits, fitCPU []float64 // wall and process CPU seconds per fit
	b1, b32      []float64 // milliseconds per fold-in projection
	rates        []float64 // columns per second of each round's fold-in
	first        *foldRound
}

// foldRound holds one round's fold-in inputs and outputs for checking.
type foldRound struct {
	w         *mat.Dense
	cols, h   []*mat.Dense // per projection: the columns and their coefficients
	residuals [][]float64
}

func runFitWorkload(e *env, build setupFit) error {
	var fc *fitCase
	var setup setupTimes
	var genS, writeS []float64
	for rep := 0; rep < setupReps; rep++ {
		if fc != nil {
			fc.close()
			fc = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		if err := setup.time(func() (err error) { fc, err = build(e); return err }); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		genS = append(genS, fc.gen.Seconds())
		writeS = append(writeS, fc.write.Seconds())
	}
	defer fc.close()

	// The first fit in a process runs slower than the rest (page
	// faults on fresh buffers, cold caches): it is checked, not timed.
	ref, err := fc.fit()
	e.op("fit", err)
	if err != nil {
		return fmt.Errorf("warm-up fit: %w", err)
	}
	if err := fc.check(ref); err != nil {
		return fmt.Errorf("fit check: %w", err)
	}
	fmt.Printf("input: %s\nwarm-up fit: %s, %d iterations, rel_err %.6g\n",
		fc.input, ref.Algorithm, ref.Iterations, ref.RelErr[len(ref.RelErr)-1])
	inputs := foldInputs(fc.fold)

	var main, traced roundStats
	if e.traced {
		if main, err = fitRounds(e, fc, ref, inputs, nil, 0.5); err != nil {
			return err
		}
		if traced, err = fitRounds(e, fc, ref, inputs, e.tracer(0), 0.5); err != nil {
			return err
		}
	} else if main, err = fitRounds(e, fc, ref, inputs, nil, 1); err != nil {
		return err
	}
	rss := peakRSSMiB()
	if err := checkFold(main.first); err != nil {
		return fmt.Errorf("fold-in check: %w", err)
	}

	fitS := median(main.fits)
	q1, _, q3 := quartiles(main.fits)
	fmt.Printf("fits %d: wall median %.4g s (quartiles %.4g–%.4g), CPU median %.4g s\n",
		len(main.fits), fitS, q1, q3, median(main.fitCPU))
	if !e.traced {
		e.add("fit_cpu_s", "s", median(main.fitCPU))
		setup.report(e)
		e.add("peak_rss_mib", "MiB", rss)
		addProjectMetrics(e, main.b1, main.b32, median(main.rates))
		return nil
	}
	e.add("datasets.gen_s", "s", median(genS))
	if w := median(writeS); w > 0 {
		e.add("ooc.write_s", "s", w)
	}
	e.add("trace.overhead_fit_s", "s", median(traced.fits)-fitS)
	e.add("trace.overhead_project_p50_ms", "ms", median(traced.b1)-median(main.b1))
	e.add("core.project_b1_ms", "ms", median(main.b1))
	e.add("core.project_b32_ms", "ms", median(main.b32))
	return fc.layers(e, ref, fitS)
}

// addProjectMetrics reports the projection latencies and rate.
func addProjectMetrics(e *env, b1, b32 []float64, colsPerS float64) {
	e.add("project_p50_ms", "ms", median(b1))
	e.add("batch_p50_ms", "ms", median(b32))
	// The p99 and the rate are printed, not reported: over about a
	// thousand samples the p99 rests on ten, and both spread 15–33%
	// between runs of the same code while the hypervisor stole time.
	fmt.Printf("one-column projections: %d samples, p99 %.4g ms; 32-column: %d samples; %.5g columns/s\n",
		len(b1), percentile(b1, 99), len(b32), colsPerS)
}

// foldInputs splits the held-out columns into the round's
// projections, outside the timed loop: foldSingles one-column matrices,
// then foldBatches 32-column blocks.
func foldInputs(fold *mat.Dense) []*mat.Dense {
	var in []*mat.Dense
	for q := 0; q < foldSingles; q++ {
		in = append(in, fold.SubmatrixCols(q, q+1))
	}
	for b := 0; b < foldBatches; b++ {
		in = append(in, fold.SubmatrixCols(b*batchCols, (b+1)*batchCols))
	}
	return in
}

// fitRounds runs whole rounds — one timed fit, then the fold-in
// projections against its basis — until frac of the run's time is
// spent, and at least three rounds. Every fit must reproduce the
// checked warm-up fit bit for bit, and every round's projections the
// first round's.
func fitRounds(e *env, fc *fitCase, ref *core.Result, inputs []*mat.Dense, tc *trace.Tracer, frac float64) (roundStats, error) {
	var st roundStats
	end := e.deadline(frac)
	for round := 0; round < 3 || time.Now().Before(end); round++ {
		// Start every round from a collected heap, so neither the fit's
		// time nor the peak RSS depends on how much of the previous
		// round's garbage happened to be swept.
		runtime.GC()
		sp := tc.Begin(trace.CatRequest, "fit")
		c0 := cpuSeconds()
		t := time.Now()
		res, err := fc.fit()
		d := time.Since(t)
		cpu := cpuSeconds() - c0
		sp.End()
		e.op("fit", err)
		if err != nil {
			return st, fmt.Errorf("fit: %w", err)
		}
		st.fits = append(st.fits, d.Seconds())
		st.fitCPU = append(st.fitCPU, cpu)
		if err := sameFit(ref, res); err != nil {
			return st, err
		}

		proj, err := core.NewProjector(res.W, nnls.NewBPP(), nil)
		if err != nil {
			return st, err
		}
		out := &foldRound{w: res.W, cols: inputs}
		cols := 0
		pt := time.Now()
		for _, c := range inputs {
			h := mat.NewDense(fc.k, c.Cols)
			r := make([]float64, c.Cols)
			sp := tc.BeginArg(trace.CatRequest, "core.Projector.ProjectInto", "cols", int64(c.Cols))
			t := time.Now()
			_, err := proj.ProjectInto(h, c, r)
			d := ms(time.Since(t))
			sp.End()
			kind, lat := "project_b1", &st.b1
			if c.Cols > 1 {
				kind, lat = "project_b32", &st.b32
			}
			*lat = append(*lat, d)
			e.op(kind, err)
			if err != nil {
				return st, fmt.Errorf("fold-in projection: %w", err)
			}
			out.h = append(out.h, h)
			out.residuals = append(out.residuals, r)
			cols += c.Cols
		}
		st.rates = append(st.rates, float64(cols)/time.Since(pt).Seconds())
		if st.first == nil {
			st.first = out
		} else if err := sameFold(st.first, out); err != nil {
			return st, err
		}
	}
	return st, nil
}

// sameFit checks that a timed fit reproduced the checked one bit for
// bit: the drivers are deterministic for a fixed input and options.
func sameFit(ref, res *core.Result) error {
	if !sameBits(ref.W, res.W) || !sameBits(ref.H, res.H) || len(ref.RelErr) != len(res.RelErr) {
		return fmt.Errorf("a repeated fit did not reproduce the checked factors")
	}
	for i := range ref.RelErr {
		if ref.RelErr[i] != res.RelErr[i] {
			return fmt.Errorf("a repeated fit did not reproduce the checked rel_err history")
		}
	}
	return nil
}

func sameBits(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

func sameFold(a, b *foldRound) error {
	for q := range a.h {
		if !sameBits(a.h[q], b.h[q]) {
			return fmt.Errorf("fold-in projection %d changed between rounds", q)
		}
	}
	return nil
}

// checkFold checks every projection of one round.
func checkFold(r *foldRound) error {
	g := plainGram(r.w)
	for q, cols := range r.cols {
		for j := 0; j < cols.Cols; j++ {
			c := cols.SubmatrixCols(j, j+1).Data
			h := r.h[q].SubmatrixCols(j, j+1).Data
			if err := checkProjection(r.w, g, c, h, r.residuals[q][j]); err != nil {
				return fmt.Errorf("fold-in projection %d, column %d: %w", q, j, err)
			}
		}
	}
	return nil
}

// fitOpts are the options every fit workload shares: a fixed
// iteration count (Tol 0) with the error history on.
func fitOpts(k, iters int, solver core.SolverKind, threads int, seed uint64) core.Options {
	return core.Options{K: k, MaxIter: iters, Solver: solver, KernelThreads: threads, ComputeError: true, Seed: seed}
}

// checkDenseFit runs the checks shared by the dense fits: non-negative
// finite factors, rel_err recomputed, never rising, and within
// floorFactor of the planted floor.
func checkDenseFit(res *core.Result, relErr, floor, floorFactor float64) error {
	if err := checkNonnegFinite("W", res.W); err != nil {
		return err
	}
	if err := checkNonnegFinite("H", res.H); err != nil {
		return err
	}
	last := res.RelErr[len(res.RelErr)-1]
	if err := checkRelErr(last, relErr); err != nil {
		return err
	}
	if err := checkMonotone(res.RelErr); err != nil {
		return err
	}
	return checkFloor(last, floor, floorFactor)
}
