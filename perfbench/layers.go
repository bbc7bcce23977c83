package main

// Per-layer metrics. A traced run times the benchmark's own calls into
// each package at the workload's shapes and data, one span per call on
// the main trace track. For the fit workloads it also replays one
// iteration's layer calls on rank 0's block of A with the fit's final
// factors; core.unattributed_ms is the part of the measured iteration
// time the replayed calls do not cover.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"hpcnmf"
	"hpcnmf/internal/core"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/sparse"
	"hpcnmf/internal/store"
)

// kernelReps is how many times each layer call is repeated; the
// metric is the median.
const kernelReps = 5

// layerMS times fn reps times as spans named name and returns the
// median in milliseconds.
func (e *env) layerMS(name string, reps int, fn func()) float64 {
	tc := e.tracer(0)
	xs := make([]float64, reps)
	for i := range xs {
		sp := tc.Begin("layer", name)
		t := time.Now()
		fn()
		xs[i] = ms(time.Since(t))
		sp.End()
	}
	return median(xs)
}

// gflops is 2·m·n·k flops over t milliseconds, in GF/s.
func gflops(m, n, k int, tMS float64) float64 {
	return 2 * float64(m) * float64(n) * float64(k) / (tMS * 1e6)
}

// iterParts sums one replayed iteration's layer calls, in ms.
type iterParts struct {
	mm, gram, nnls, wait, comm float64
}

func (p iterParts) total() float64 { return p.mm + p.gram + p.nnls + p.wait + p.comm }

// nnlsInputs are the two subproblems of one iteration: the W solve
// (Gram HHᵀ, right-hand side (AHᵀ)ᵀ, warm start Wᵀ) and the H solve
// (WᵀW, WᵀA, H).
type nnlsInputs struct {
	gw, fw, w0 *mat.Dense
	gh, fh, h0 *mat.Dense
}

// probeNNLS times BPP and HALS on both subproblems and returns the
// time of the solver the fit uses.
func probeNNLS(e *env, in nnlsInputs, solver core.SolverKind, sweeps int, pool *par.Pool) float64 {
	ctx := &nnls.Context{WS: mat.NewWorkspace(), Pool: pool}
	solve := func(name string, s nnls.Solver, g, f, x0 *mat.Dense) (float64, nnls.Stats) {
		dst := mat.NewDense(f.Rows, f.Cols)
		var st nnls.Stats
		t := e.layerMS(name, kernelReps, func() {
			var err error
			if st, err = nnls.SolveWith(s, ctx, g, f, x0, dst); err != nil {
				panic(fmt.Sprintf("perfbench: %s: %v", name, err))
			}
		})
		return t, st
	}
	bw, sw := solve("nnls.BPP/W", nnls.NewBPP(), in.gw, in.fw, in.w0)
	bh, sh := solve("nnls.BPP/H", nnls.NewBPP(), in.gh, in.fh, in.h0)
	hw, _ := solve("nnls.HALS/W", nnls.NewHALS(sweeps), in.gw, in.fw, in.w0)
	hh, _ := solve("nnls.HALS/H", nnls.NewHALS(sweeps), in.gh, in.fh, in.h0)
	e.add("nnls.bpp_w_ms", "ms", bw)
	e.add("nnls.bpp_h_ms", "ms", bh)
	e.add("nnls.bpp_rounds", "count", float64(sw.Iterations+sh.Iterations))
	e.add("nnls.hals_ms", "ms", hw+hh)
	if solver == core.SolverHALS {
		return hw + hh
	}
	return bw + bh
}

// probeGrams times an iteration's Grams — HHᵀ and WᵀW, reported as
// mat.gram_ms — and returns their time plus the error evaluation's
// second HHᵀ.
func probeGrams(e *env, w, h *mat.Dense, pool *par.Pool) float64 {
	g := mat.NewDense(h.Rows, h.Rows)
	t := e.layerMS("mat.GramT(H)", kernelReps, func() { mat.ParGramTTo(g, h, pool) }) +
		e.layerMS("mat.Gram(W)", kernelReps, func() { mat.ParGramTo(g, w, pool) })
	e.add("mat.gram_ms", "ms", t)
	return t + e.layerMS("mat.GramT(H)/err", kernelReps, func() { mat.ParGramTTo(g, h, pool) })
}

// probePar reports the pool's parallel efficiency on one panel: the
// speed-up of 2 threads over 1, divided by 2.
func probePar(e *env, panel, w, h *mat.Dense) {
	k := h.Rows
	abt := mat.NewDense(panel.Rows, k)
	atb := mat.NewDense(k, panel.Cols)
	var t [2][2]float64
	for i, threads := range []int{1, 2} {
		pool := par.NewPool(threads)
		t[i][0] = e.layerMS(fmt.Sprintf("par.MulABt/%d", threads), kernelReps, func() { mat.ParMulABtTo(abt, panel, h, pool) })
		t[i][1] = e.layerMS(fmt.Sprintf("par.MulAtB/%d", threads), kernelReps, func() { mat.ParMulAtBTo(atb, w, panel, pool) })
		pool.Close()
	}
	e.add("par.mulabt_eff", "ratio", t[0][0]/t[1][0]/2)
	e.add("par.mulatb_eff", "ratio", t[0][1]/t[1][1]/2)
}

// probeSparse times the CSR kernels: A·Hᵀ (from Hᵀ, n×k) and WᵀA.
func probeSparse(e *env, a *sparse.CSR, w, h *mat.Dense, pool *par.Pool) (bt, wta float64) {
	k := h.Rows
	ht := h.T()
	c1 := mat.NewDense(a.Rows, k)
	c2 := mat.NewDense(k, a.Cols)
	bt = e.layerMS("sparse.MulBt", kernelReps, func() { a.MulBtTo(c1, ht, pool) })
	wta = e.layerMS("sparse.MulWtA", kernelReps, func() { a.MulWtATo(c2, w, pool) })
	e.add("sparse.mulbt_ms", "ms", bt)
	e.add("sparse.mulwta_ms", "ms", wta)
	e.add("sparse.gflops", "GF/s", 2*2*float64(a.NNZ())*float64(k)/((bt+wta)*1e6))
	return bt, wta
}

// probeMPI times one iteration's collectives on a 2-rank world at the
// message sizes rank 0 of grid g sends for an m×n input at rank k:
// the factor all-gathers and product reduce-scatters of both halves,
// the two Gram all-reduces and the error all-reduce.
func probeMPI(e *env, g grid.Grid, m, n, k int) float64 {
	const reps = 20
	var ag, rs, ar [4][]float64
	world := mpi.NewWorld(g.Size())
	world.Run(func(c *mpi.Comm) {
		rank := c.Rank()
		gi, gj := g.Coords(rank)
		mi := grid.BlockSize(m, g.PR, gi)
		nj := grid.BlockSize(n, g.PC, gj)
		rowComm := c.Sub(g.RowMembers(gi))
		colComm := c.Sub(g.ColMembers(gj))
		hCounts := grid.BlockCounts(nj, g.PR)
		wCounts := grid.BlockCounts(mi, g.PC)
		hPiece := make([]float64, hCounts[gi]*k)
		wPiece := make([]float64, wCounts[gj]*k)
		wProd := make([]float64, mi*k)
		hProd := make([]float64, nj*k)
		gram := make([]float64, k*k)
		timed := func(xs *[]float64, fn func()) {
			c.Barrier()
			t := time.Now()
			fn()
			if rank == 0 {
				*xs = append(*xs, ms(time.Since(t)))
			}
		}
		for r := 0; r < reps; r++ {
			timed(&ag[0], func() { colComm.AllGatherV(hPiece, grid.ScaleCounts(hCounts, k)) })
			timed(&rs[0], func() { rowComm.ReduceScatter(wProd, grid.ScaleCounts(wCounts, k)) })
			timed(&ag[1], func() { rowComm.AllGatherV(wPiece, grid.ScaleCounts(wCounts, k)) })
			timed(&rs[1], func() { colComm.ReduceScatter(hProd, grid.ScaleCounts(hCounts, k)) })
			timed(&ar[0], func() { c.AllReduce(gram) })
			timed(&ar[1], func() { c.AllReduce(gram) })
			timed(&ar[2], func() { c.AllReduce(gram[:2]) })
		}
	})
	sum := func(xs [4][]float64) float64 {
		s := 0.0
		for _, x := range xs {
			if len(x) > 0 {
				s += median(x)
			}
		}
		return s
	}
	e.add("mpi.allgather_ms", "ms", sum(ag))
	e.add("mpi.reducescatter_ms", "ms", sum(rs))
	e.add("mpi.allreduce_ms", "ms", sum(ar))
	return sum(ag) + sum(rs) + sum(ar)
}

// wordsPerIter is the fit's per-iteration communication volume (max
// over ranks, summed over the collectives).
func wordsPerIter(res *core.Result) float64 {
	if res.Breakdown == nil {
		return 0
	}
	var w int64
	for _, v := range res.Breakdown.Words {
		w += v
	}
	return float64(w)
}

// rankSkewMS is the spread, max − min over ranks, of the per-iteration
// compute time (MM, NLS, Gram) each rank measured.
func rankSkewMS(res *core.Result) float64 {
	if len(res.PerRank) < 2 {
		return 0
	}
	lo, hi := 0.0, 0.0
	for i, r := range res.PerRank {
		s := 0.0
		for _, t := range []perf.Task{perf.TaskMM, perf.TaskNLS, perf.TaskGram} {
			s += r.Tasks[t.String()].MeasuredSeconds
		}
		if i == 0 || s < lo {
			lo = s
		}
		if i == 0 || s > hi {
			hi = s
		}
	}
	return (hi - lo) * 1e3
}

// probeOOC times prefetch-pipeline passes over a tile file: with no
// compute (ooc.pass_ms), and, when h is given, with the A·Hᵀ kernel on
// each panel, returning that pass's consumer wait and hidden fraction.
func probeOOC(e *env, path string, h *mat.Dense, pool *par.Pool) (waitMS, hidden float64, err error) {
	f, err := ooc.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	_, n := f.Dims()
	var st ooc.Stats
	pass := func(name string, work func(p *ooc.Panel)) float64 {
		return e.layerMS(name, kernelReps, func() {
			p := ooc.NewPipeline(f, ooc.DefaultDepth)
			defer p.Close()
			for t := 0; t < f.Tiles() && err == nil; t++ {
				var panel *ooc.Panel
				if panel, err = p.Next(); err == nil {
					work(panel)
					p.Release(panel)
				}
			}
			st = p.Stats()
		})
	}
	t := pass("ooc.Pipeline.pass", func(*ooc.Panel) {})
	if err != nil {
		return 0, 0, err
	}
	e.add("ooc.pass_ms", "ms", t)
	e.add("ooc.read_gib_per_s", "GiB/s", float64(f.Header().DataSize())/(1<<30)/(t/1e3))
	if h == nil {
		return 0, 0, nil
	}
	pass("ooc.Pipeline.pass+MulABt", func(p *ooc.Panel) {
		a := &mat.Dense{Rows: p.Row1 - p.Row0, Cols: n, Data: p.Data}
		mat.ParMulABtTo(mat.NewDense(a.Rows, h.Rows), a, h, pool)
	})
	return ms(st.Wait), st.HiddenFraction(), err
}

// writeTiles writes d as a tile file and reports ooc.write_s.
func writeTiles(e *env, d *mat.Dense) (string, error) {
	path := filepath.Join(e.dir, "probe.tiles")
	var err error
	t := e.layerMS("ooc.WriteMatrix", 1, func() { err = ooc.WriteMatrix(path, d, ooc.DefaultTileRows(d.Cols)) })
	e.add("ooc.write_s", "s", t/1e3)
	return path, err
}

// probeStore times a filesystem store commit (with its fsyncs) and a
// read (with its CRC check) of basis w.
func probeStore(e *env, w *mat.Dense) error {
	st, err := store.NewFS(filepath.Join(e.dir, "probe-store"))
	if err != nil {
		return err
	}
	var perr error
	put := e.layerMS("store.Put", kernelReps, func() {
		if err := st.Put(&store.Model{ID: "probe", W: w, Fitted: time.Now()}); err != nil {
			perr = err
		}
	})
	get := e.layerMS("store.Get", kernelReps, func() {
		if _, err := st.Get("probe"); err != nil {
			perr = err
		}
	})
	e.add("store.put_ms", "ms", put)
	e.add("store.get_ms", "ms", get)
	return perr
}

// probeProjector times Projector.ProjectInto on basis w for one column
// and for 32.
func probeProjector(e *env, w, cols *mat.Dense) error {
	p, err := core.NewProjector(w, nnls.NewBPP(), nil)
	if err != nil {
		return err
	}
	c1 := cols.SubmatrixCols(0, 1)
	h1, h32 := mat.NewDense(w.Cols, 1), mat.NewDense(w.Cols, cols.Cols)
	var perr error
	b1 := e.layerMS("core.Projector.ProjectInto/1", 50, func() {
		if _, err := p.ProjectInto(h1, c1, nil); err != nil {
			perr = err
		}
	})
	b32 := e.layerMS("core.Projector.ProjectInto/32", 10, func() {
		if _, err := p.ProjectInto(h32, cols, nil); err != nil {
			perr = err
		}
	})
	e.add("core.project_b1_ms", "ms", b1)
	e.add("core.project_b32_ms", "ms", b32)
	return perr
}

// probeServeInProc times ServeHTTP on a fresh in-memory server with
// basis w, straight into a response recorder: no socket, no hop.
func probeServeInProc(e *env, w, cols *mat.Dense) error {
	srv := serve.New(serve.Options{})
	defer srv.Close()
	if err := srv.AddModel("probe", w); err != nil {
		return err
	}
	b1, err := projectBody("probe", cols.SubmatrixCols(0, 1))
	if err != nil {
		return err
	}
	b32, err := projectBody("probe", cols)
	if err != nil {
		return err
	}
	var perr error
	call := func(body []byte) func() {
		return func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/project", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				perr = fmt.Errorf("in-process projection: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	e.add("serve.inproc_b1_ms", "ms", e.layerMS("serve.ServeHTTP/1", 50, call(b1)))
	e.add("serve.inproc_b32_ms", "ms", e.layerMS("serve.ServeHTTP/32", 10, call(b32)))
	return perr
}

// projectBody encodes the columns of cols as a /v1/project body.
func projectBody(model string, cols *mat.Dense) ([]byte, error) {
	t := cols.T()
	req := serve.ProjectRequest{Model: model}
	for j := 0; j < t.Rows; j++ {
		req.Columns = append(req.Columns, t.Row(j))
	}
	return json.Marshal(req)
}

// colsPerSolve reads the servers' own counters: projected columns per
// stacked NNLS solve.
func colsPerSolve(srvs ...*serve.Server) float64 {
	var req, solves int64
	for _, s := range srvs {
		req += s.Metrics().Counter("serve.project.requests").Value()
		solves += s.Metrics().Counter("serve.project.solves").Value()
	}
	return float64(req) / float64(solves)
}

// forwarded sums the routers' forwarded-request counters.
func forwarded(c *serveCluster) float64 {
	var n int64
	for _, in := range c.ins {
		n += in.srv.Metrics().Counter("cluster.forwarded").Value()
	}
	return float64(n)
}

// probeHop sends identical one-column requests for model id to its
// owner and to the other instance, alternating, and reports the p50
// difference: the cost of the forwarding hop.
func probeHop(e *env, c *serveCluster, id string, body []byte) error {
	own := c.owner(id)
	other := c.ins[0]
	if other == own {
		other = c.ins[1]
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	tc := e.tracer(0)
	var direct, hop []float64
	for i := 0; i < 100; i++ {
		for _, in := range []*instance{own, other} {
			name := "cluster.project/owner"
			if in != own {
				name = "cluster.project/forwarded"
			}
			var resp serve.ProjectResponse
			sp := tc.Begin("layer", name)
			t := time.Now()
			err := postJSON(cl, in.addr, "/v1/project", body, &resp)
			d := ms(time.Since(t))
			sp.End()
			if err != nil {
				return err
			}
			if in == own {
				direct = append(direct, d)
			} else {
				hop = append(hop, d)
			}
		}
	}
	e.add("cluster.forward_hop_ms", "ms", median(hop)-median(direct))
	return nil
}

// probeServing measures the serving-side layers for basis w and 32
// columns cols on a two-instance cluster of its own: used by the fit
// workloads, whose fitted basis is the model.
func probeServing(e *env, w, cols *mat.Dense) error {
	if err := probeServeInProc(e, w, cols); err != nil {
		return err
	}
	if err := probeStore(e, w); err != nil {
		return err
	}
	c, err := bootCluster(filepath.Join(e.dir, "probe-cluster"), []*mat.Dense{w})
	if err != nil {
		return err
	}
	defer c.close()
	body, err := projectBody(modelID(0), cols.SubmatrixCols(0, 1))
	if err != nil {
		return err
	}
	if err := probeHop(e, c, modelID(0), body); err != nil {
		return err
	}
	e.add("serve.cols_per_solve", "ratio", colsPerSolve(c.ins[0].srv, c.ins[1].srv))
	e.add("cluster.forwarded", "count", forwarded(c))
	return nil
}

// panelOf returns the first rows of d (at most one default tile's
// height, at least 64 rows) with the matching rows of w.
func panelOf(d, w *mat.Dense) (*mat.Dense, *mat.Dense) {
	rows := min(d.Rows, max(64, ooc.DefaultTileRows(d.Cols)))
	return d.SubmatrixRows(0, rows), w.SubmatrixRows(0, rows)
}

// replay2D replays one iteration of a 2D HPC fit on rank 0's block.
func replay2D(e *env, a core.Matrix, res *core.Result, fitS float64, opts core.Options, fold *mat.Dense) error {
	g := res.Grid
	m, n := a.Dims()
	k := opts.K
	r0, r1 := grid.BlockRange(m, g.PR, 0)
	c0, c1 := grid.BlockRange(n, g.PC, 0)
	mi, nj := r1-r0, c1-c0
	wLo, wHi := grid.BlockRange(mi, g.PC, 0)
	hLo, hHi := grid.BlockRange(nj, g.PR, 0)
	aij := a.Block(r0, r1, c0, c1)
	wBlk := res.W.SubmatrixRows(r0, r1)    // the H half's gathered W panel
	hBlk := res.H.SubmatrixCols(c0, c1)    // the W half's gathered H panel, transposed
	wPiece := wBlk.SubmatrixRows(wLo, wHi) // this rank's W rows
	hPiece := hBlk.SubmatrixCols(hLo, hHi) // this rank's H columns
	pool := par.NewPool(opts.KernelThreads)
	defer pool.Close()

	var parts iterParts
	parts.gram = probeGrams(e, wPiece, hPiece, pool)

	// The dense operand of the mat and par probes: the block itself for
	// a dense A; for a sparse A, whose fit never calls the dense MM
	// kernels, a densified row panel of the block.
	var dense, denseW *mat.Dense
	if d, ok := core.UnwrapDense(aij); ok {
		hbT := hBlk.T()
		vij := mat.NewDense(mi, k)
		yij := mat.NewDense(k, nj)
		abt := e.layerMS("mat.MulABt", kernelReps, func() { mat.ParMulTo(vij, d, hbT, pool) })
		atb := e.layerMS("mat.MulAtB", kernelReps, func() { mat.ParMulAtBTo(yij, wBlk, d, pool) })
		parts.mm = abt + atb
		e.add("mat.mulabt_ms", "ms", abt)
		e.add("mat.mulatb_ms", "ms", atb)
		e.add("mat.mulabt_gflops", "GF/s", gflops(mi, nj, k, abt))
		e.add("mat.mulatb_gflops", "GF/s", gflops(mi, nj, k, atb))
		dense, denseW = d, wBlk
		p, pw := panelOf(d, wBlk)
		probeSparse(e, sparse.FromDense(p), pw, hBlk, pool)
	} else {
		s, _ := core.UnwrapSparse(aij)
		bt, wta := probeSparse(e, s, wBlk, hBlk, pool)
		parts.mm = bt + wta
		dense, denseW = panelOf(s.SubmatrixRows(0, min(s.Rows, 64)).ToDense(), wBlk)
		probeDenseMM(e, dense, denseW, hBlk, pool)
	}
	p, pw := panelOf(dense, denseW)
	probePar(e, p, pw, hBlk)

	// One iteration's NNLS subproblems for this rank's pieces, built
	// outside the timed calls.
	parts.nnls = probeNNLS(e, nnlsInputs{
		gw: mat.GramT(res.H), fw: a.Block(r0+wLo, r0+wHi, 0, n).MulHt(res.H).T(), w0: wPiece.T(),
		gh: mat.Gram(res.W), fh: a.Block(0, m, c0+hLo, c0+hHi).MulAtB(res.W), h0: hPiece,
	}, opts.Solver, max(opts.Sweeps, 1), pool)
	parts.comm = probeMPI(e, g, m, n, k)
	e.add("mpi.words_per_iter", "count", wordsPerIter(res))

	path, err := writeTiles(e, dense)
	if err != nil {
		return err
	}
	wait, hidden, err := probeOOC(e, path, hBlk, pool)
	if err != nil {
		return err
	}
	e.add("ooc.wait_ms", "ms", wait)
	e.add("ooc.hidden_frac", "ratio", hidden)
	addCore(e, fitS, res, parts)
	return probeServing(e, res.W, fold.SubmatrixCols(0, batchCols))
}

// probeDenseMM reports the mat metrics on a dense operand outside the
// fit's path, with ParMulABtTo as the A·Hᵀ kernel.
func probeDenseMM(e *env, d, w, h *mat.Dense, pool *par.Pool) float64 {
	k := h.Rows
	c1 := mat.NewDense(d.Rows, k)
	c2 := mat.NewDense(k, d.Cols)
	abt := e.layerMS("mat.MulABt", kernelReps, func() { mat.ParMulABtTo(c1, d, h, pool) })
	atb := e.layerMS("mat.MulAtB", kernelReps, func() { mat.ParMulAtBTo(c2, w, d, pool) })
	e.add("mat.mulabt_ms", "ms", abt)
	e.add("mat.mulatb_ms", "ms", atb)
	e.add("mat.mulabt_gflops", "GF/s", gflops(d.Rows, d.Cols, k, abt))
	e.add("mat.mulatb_gflops", "GF/s", gflops(d.Rows, d.Cols, k, atb))
	return abt + atb
}

// addCore reports the iteration-level metrics: measured time per
// iteration, the part the replayed layer calls leave unexplained, and
// the rank skew.
func addCore(e *env, fitS float64, res *core.Result, parts iterParts) {
	iter := fitS * 1e3 / float64(res.Iterations)
	e.add("core.iter_ms", "ms", iter)
	e.add("core.unattributed_ms", "ms", iter-parts.total())
	e.add("core.rank_skew_ms", "ms", rankSkewMS(res))
	fmt.Printf("replayed iteration: mm %.2f gram %.2f nnls %.2f tile-wait %.2f comm %.2f of %.2f ms\n",
		parts.mm, parts.gram, parts.nnls, parts.wait, parts.comm, iter)
}

// replayTiled replays one out-of-core iteration: the two streamed
// passes (kernel time and tile waits apart), the Grams and the solves.
func replayTiled(e *env, f *ooc.File, res *core.Result, fitS float64, opts core.Options, fold *mat.Dense) error {
	k := opts.K
	m, n := f.Dims()
	pool := par.NewPool(opts.KernelThreads)
	defer pool.Close()
	aht := mat.NewDense(m, k)
	wta := mat.NewDense(k, n)
	var abt, atb, wait []float64
	var first *mat.Dense
	for rep := 0; rep < kernelReps; rep++ {
		pipe := ooc.NewPipeline(f, ooc.DefaultDepth)
		var kAbt, kAtb, w float64
		wta.Zero()
		for pass := 0; pass < 2; pass++ {
			for t := 0; t < f.Tiles(); t++ {
				t0 := time.Now()
				p, err := pipe.Next()
				w += ms(time.Since(t0))
				if err != nil {
					pipe.Close()
					return err
				}
				panel := &mat.Dense{Rows: p.Row1 - p.Row0, Cols: n, Data: p.Data}
				if pass == 0 {
					out := &mat.Dense{Rows: panel.Rows, Cols: k, Data: aht.Data[p.Row0*k : p.Row1*k]}
					kAbt += e.layerMS("mat.MulABt/tile", 1, func() { mat.ParMulABtTo(out, panel, res.H, pool) })
				} else {
					wp := &mat.Dense{Rows: panel.Rows, Cols: k, Data: res.W.Data[p.Row0*k : p.Row1*k]}
					kAtb += e.layerMS("mat.MulAtB/tile", 1, func() { mat.ParMulAtBAddTo(wta, wp, panel, pool) })
				}
				if first == nil {
					first = panel.Clone()
				}
				pipe.Release(p)
			}
		}
		pipe.Close()
		abt, atb, wait = append(abt, kAbt), append(atb, kAtb), append(wait, w)
	}
	var parts iterParts
	parts.mm = median(abt) + median(atb)
	parts.wait = median(wait)
	e.add("mat.mulabt_ms", "ms", median(abt))
	e.add("mat.mulatb_ms", "ms", median(atb))
	e.add("mat.mulabt_gflops", "GF/s", gflops(m, n, k, median(abt)))
	e.add("mat.mulatb_gflops", "GF/s", gflops(m, n, k, median(atb)))

	parts.gram = probeGrams(e, res.W, res.H, pool)

	pw := res.W.SubmatrixRows(0, first.Rows)
	probePar(e, first, pw, res.H)
	probeSparse(e, sparse.FromDense(first), pw, res.H, pool)
	parts.nnls = probeNNLS(e, nnlsInputs{gw: mat.GramT(res.H), fw: aht.T(), w0: res.W.T(), gh: mat.Gram(res.W), fh: wta, h0: res.H},
		opts.Solver, max(opts.Sweeps, 1), pool)
	probeMPI(e, grid.Choose(m, n, 2), m, n, k)
	e.add("mpi.words_per_iter", "count", wordsPerIter(res))

	if _, _, err := probeOOC(e, f.Path(), nil, nil); err != nil {
		return err
	}
	e.add("ooc.wait_ms", "ms", res.OOC.WaitSeconds*1e3/float64(res.Iterations))
	e.add("ooc.hidden_frac", "ratio", res.OOC.HiddenFraction)
	addCore(e, fitS, res, parts)
	return probeServing(e, res.W, fold.SubmatrixCols(0, batchCols))
}

// serveLayers measures the per-layer metrics of serve-cluster: the
// serving layers on the running cluster and its first model, and the
// compute layers on the /v1/fit matrix with an in-process fit using
// the options the server's fit jobs use.
func serveLayers(e *env, c *serveCluster, in *serveInput) error {
	e.add("serve.cols_per_solve", "ratio", colsPerSolve(c.ins[0].srv, c.ins[1].srv))
	e.add("cluster.forwarded", "count", forwarded(c))
	w := in.w0[0]
	cols := mat.NewDense(serveM, batchCols)
	for j := 0; j < batchCols; j++ {
		for i := 0; i < serveM; i++ {
			cols.Set(i, j, in.cols[0][j][i])
		}
	}
	if err := probeProjector(e, w, cols); err != nil {
		return err
	}
	if err := probeServeInProc(e, w, cols); err != nil {
		return err
	}
	if err := probeHop(e, c, modelID(0), in.single[0][0]); err != nil {
		return err
	}
	if err := probeStore(e, w); err != nil {
		return err
	}

	a := in.fitA
	opts := core.Options{K: serveK, MaxIter: serveFitIters, Solver: core.SolverBPP, ComputeError: true, Seed: e.seed}
	var res *core.Result
	var ferr error
	fitMS := e.layerMS("core.RunSequential", 3, func() {
		res, ferr = hpcnmf.Run(hpcnmf.WrapDense(a), opts)
	})
	if ferr != nil {
		return ferr
	}
	pool := par.NewPool(1)
	defer pool.Close()
	var parts iterParts
	parts.mm = probeDenseMM(e, a, res.W, res.H, pool)
	parts.gram = probeGrams(e, res.W, res.H, pool)
	probePar(e, a, res.W, res.H)
	probeSparse(e, sparse.FromDense(a), res.W, res.H, pool)
	parts.nnls = probeNNLS(e, nnlsInputs{gw: mat.GramT(res.H), fw: mat.MulABt(a, res.H).T(), w0: res.W.T(),
		gh: mat.Gram(res.W), fh: mat.MulAtB(res.W, a), h0: res.H}, opts.Solver, 1, pool)
	probeMPI(e, grid.Choose(serveM, serveFitN, 2), serveM, serveFitN, serveK)
	e.add("mpi.words_per_iter", "count", wordsPerIter(res))
	path, err := writeTiles(e, a)
	if err != nil {
		return err
	}
	wait, hidden, err := probeOOC(e, path, res.H, pool)
	if err != nil {
		return err
	}
	e.add("ooc.wait_ms", "ms", wait)
	e.add("ooc.hidden_frac", "ratio", hidden)
	addCore(e, fitMS/1e3, res, parts)
	return nil
}
