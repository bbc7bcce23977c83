package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpcnmf/internal/cluster"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/store"
	"hpcnmf/internal/trace"
)

// serve-cluster: two serving instances, each a serve.Server behind a
// cluster.Router, over loopback TCP with one shared filesystem model
// store and replication 1, so a request sent to the instance that does
// not own its model takes a forwarding hop. Each instance runs with
// nmfserve's default options.
const (
	clients = 2 // closed-loop clients, each with its own connections

	serveModels, serveM, serveK = 8, 1024, 24
	// Every preloaded model has serveExact columns c = W₀h₀ (whose h₀
	// a projection must recover) and as many noisy ones.
	serveExact = 32

	// Per client round: one fit, then serveSingles one-column and
	// serveBatches 32-column projections.
	serveSingles = 48
	serveBatches = 8

	// serveSetupReps: a boot is short (about 0.3 s, eight fsynced
	// model commits) and its median moved 20% between sets of runs at 5
	// repetitions, so set-up is repeated more often than the fits'.
	serveSetupReps = 9

	// The /v1/fit matrix: planted rank serveK plus noise, fitted with
	// the server's sequential BPP for serveFitIters iterations — long
	// enough that the fit's compute (about 0.35 s in-process), not the
	// 2.3 MB JSON body, the commit fsync or the progress stream's 25 ms
	// check interval, carries fit_s.
	serveFitN, serveFitIters = 128, 80
	serveFitSigma            = 0.3
	serveFloorFactor         = 1.05
)

// instance is one cluster member.
type instance struct {
	addr   string
	srv    *serve.Server
	rt     *cluster.Router
	hs     *http.Server
	served chan error
}

// serveCluster is the booted pair and the benchmark's own handle on
// the shared store.
type serveCluster struct {
	ins []*instance
	st  *store.FS
}

// bootCluster starts the instances over a fresh store directory and
// preloads each model on its owner.
func bootCluster(dir string, models []*mat.Dense) (*serveCluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &serveCluster{}
	lns := make([]net.Listener, 2)
	peers := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		in, err := startInstance(ln, peers[i], peers, dir)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		c.ins = append(c.ins, in)
	}
	st, err := store.NewFS(dir)
	if err != nil {
		c.close()
		return nil, err
	}
	c.st = st
	for i, w := range models {
		id := modelID(i)
		if err := c.owner(id).srv.AddModel(id, w); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func startInstance(ln net.Listener, self string, peers []string, dir string) (*instance, error) {
	fsStore, err := store.NewFS(dir)
	if err != nil {
		return nil, err
	}
	topo, err := cluster.NewTopology(peers, 1)
	if err != nil {
		return nil, err
	}
	// The router wraps the server, so the commit hooks reach it through
	// an atomic pointer (as nmfserve wires them).
	var rtp atomic.Pointer[cluster.Router]
	srv := serve.New(serve.Options{
		Durable:    fsStore,
		WarmFilter: func(id string) bool { return topo.IsOwner(self, id) },
		OnCommit: func(id string) {
			if r := rtp.Load(); r != nil {
				r.FanOutCommit(id)
			}
		},
		OnDelete: func(id string) {
			if r := rtp.Load(); r != nil {
				r.FanOutDelete(id)
			}
		},
	})
	rt, err := cluster.New(srv, cluster.Options{Self: self, Peers: peers, Replicas: 1})
	if err != nil {
		srv.Close()
		return nil, err
	}
	rtp.Store(rt)
	in := &instance{addr: self, srv: srv, rt: rt, hs: &http.Server{Handler: rt}, served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// owner returns the instance that owns model id.
func (c *serveCluster) owner(id string) *instance {
	for _, in := range c.ins {
		if in.rt.Owns(id) {
			return in
		}
	}
	return c.ins[0]
}

// close shuts every instance down and waits for its listener loop.
func (c *serveCluster) close() {
	for _, in := range c.ins {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = in.hs.Shutdown(ctx) // best effort: the run is ending
		cancel()
		<-in.served
		in.srv.Close()
	}
	c.ins = nil
}

func modelID(i int) string { return fmt.Sprintf("m%d", i) }

// serveInput is the generated side of the workload: planted bases,
// their request columns, pre-encoded request bodies and the fit
// matrix.
type serveInput struct {
	w0      []*mat.Dense  // serveModels bases, serveM×serveK
	cols    [][][]float64 // per model: 2·serveExact columns
	h0      [][][]float64 // per model: coefficients of its exact columns
	single  [][][]byte    // per model and column: one-column body
	batch   [][][]byte    // per model: two 32-column bodies
	fitA    *mat.Dense    // serveM×serveFitN
	fitBody func(id string) []byte
	floor   float64
}

func genServeInput(seed uint64) (*serveInput, error) {
	s := rng.New(seed)
	in := &serveInput{}
	for mi := 0; mi < serveModels; mi++ {
		w := mat.NewDense(serveM, serveK)
		w.RandomUniform(s)
		var cols, h0s [][]float64
		for j := 0; j < 2*serveExact; j++ {
			// Sparse non-negative coefficients: about a third of the
			// components are active, so recovery exercises the
			// non-negativity constraint.
			h := make([]float64, serveK)
			for l := range h {
				if s.Float64() < 0.35 {
					h[l] = s.Float64()
				}
			}
			c := make([]float64, serveM)
			for i := range c {
				c[i] = dot(w.Row(i), h)
				if j >= serveExact {
					c[i] = max(0, c[i]+0.05*s.Normal())
				}
			}
			cols = append(cols, c)
			if j < serveExact {
				h0s = append(h0s, h)
			}
		}
		in.w0 = append(in.w0, w)
		in.cols = append(in.cols, cols)
		in.h0 = append(in.h0, h0s)
		var singles [][]byte
		for _, c := range cols {
			b, err := json.Marshal(serve.ProjectRequest{Model: modelID(mi), Column: c})
			if err != nil {
				return nil, err
			}
			singles = append(singles, b)
		}
		in.single = append(in.single, singles)
		var batches [][]byte
		for b := 0; b < 2; b++ {
			body, err := json.Marshal(serve.ProjectRequest{Model: modelID(mi), Columns: cols[b*batchCols : (b+1)*batchCols]})
			if err != nil {
				return nil, err
			}
			batches = append(batches, body)
		}
		in.batch = append(in.batch, batches)
	}
	p := newPlanted(serveM, serveFitN, serveK, serveFitSigma, seed^0xf17)
	in.fitA, in.floor = p.dense()
	// Encode the matrix once; each fit splices its own model id in.
	body, err := json.Marshal(serve.FitRequest{Model: "@", Rows: serveM, Cols: serveFitN, Data: in.fitA.Data,
		K: serveK, MaxIter: serveFitIters, Seed: seed})
	if err != nil {
		return nil, err
	}
	in.fitBody = func(id string) []byte {
		return bytes.Replace(body, []byte(`"model":"@"`), []byte(fmt.Sprintf(`"model":%q`, id)), 1)
	}
	return in, nil
}

// projRec is one projection response kept for the checks.
type projRec struct {
	model string
	cols  []int // column indices into the model's column set
	resp  serve.ProjectResponse
}

// fitRec is one fit job kept for the checks.
type fitRec struct {
	id   string
	info serve.JobInfo
	proj *projRec // a projection against the new model, column j of the fit matrix (nil: none)
}

// clientStats is what one client measured.
type clientStats struct {
	b1, b32, fits []float64 // ms, ms, s
	rates         []float64 // columns projected per second of each round
	projs         []projRec // responses to the preloaded models, for the checks
	fitRecs       []fitRec
}

func runServeCluster(e *env) error {
	var in *serveInput
	var c *serveCluster
	var setup setupTimes
	var genS []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		if c != nil {
			c.close()
			c = nil
		}
		runtime.GC()
		err := setup.time(func() (err error) {
			t := time.Now()
			if in, err = genServeInput(e.seed); err != nil {
				return err
			}
			genS = append(genS, time.Since(t).Seconds())
			c, err = bootCluster(filepath.Join(e.dir, fmt.Sprintf("store%d", rep)), in.w0)
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer func() {
		if c != nil {
			c.close()
		}
	}()

	// Warm-up: one fit and a pass over every model, unmeasured, so
	// connections, batchers and caches are warm before timing.
	if _, err := serveRounds(e, c, in, false, 0, 1, "warm"); err != nil {
		return err
	}
	var main, traced []*clientStats
	var err error
	if e.traced {
		if main, err = serveRounds(e, c, in, false, 0.5, 0, "a"); err != nil {
			return err
		}
		if traced, err = serveRounds(e, c, in, true, 0.5, 0, "b"); err != nil {
			return err
		}
	} else if main, err = serveRounds(e, c, in, false, 1, 0, "a"); err != nil {
		return err
	}
	rss := peakRSSMiB()
	fitCPU, quiet, err := quietFits(e, c, in)
	if err != nil {
		return err
	}
	if err := checkServe(c, in, append(main, quiet)); err != nil {
		return err
	}
	var b1, b32, fits []float64
	colsPerS := 0.0
	for _, cs := range main {
		b1 = append(b1, cs.b1...)
		b32 = append(b32, cs.b32...)
		fits = append(fits, cs.fits...)
		colsPerS += median(cs.rates)
	}
	fmt.Printf("fit jobs under load %d: wall median %.4g s; alone: CPU median %.4g s\n", len(fits), median(fits), median(fitCPU))
	if !e.traced {
		e.add("fit_cpu_s", "s", median(fitCPU))
		setup.report(e)
		e.add("peak_rss_mib", "MiB", rss)
		addProjectMetrics(e, b1, b32, colsPerS)
		return nil
	}
	var tb1, tfits []float64
	for _, cs := range traced {
		tb1 = append(tb1, cs.b1...)
		tfits = append(tfits, cs.fits...)
	}
	e.add("datasets.gen_s", "s", median(genS))
	e.add("trace.overhead_fit_s", "s", median(tfits)-median(fits))
	e.add("trace.overhead_project_p50_ms", "ms", median(tb1)-median(b1))
	return serveLayers(e, c, in)
}

// serveRounds runs the closed-loop clients: each repeats whole rounds,
// exactly rounds of them when rounds > 0, else until frac of the run's
// time is spent (and at least two). Traced rounds record each client's
// requests on its own trace track.
func serveRounds(e *env, c *serveCluster, in *serveInput, traced bool, frac float64, rounds int, tag string) ([]*clientStats, error) {
	end := e.deadline(frac)
	out := make([]*clientStats, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var tc *trace.Tracer
			if traced {
				tc = e.tracer(1 + ci)
			}
			cl := newClient()
			defer cl.CloseIdleConnections()
			cs := &clientStats{}
			out[ci] = cs
			for r := 0; (rounds > 0 && r < rounds) || (rounds == 0 && (r < 2 || time.Now().Before(end))); r++ {
				if err := clientRound(e, cl, c, in, tc, cs, ci, r, tag); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

var opMu sync.Mutex

// countOp records an operation from a client goroutine.
func countOp(e *env, kind string, err error) {
	opMu.Lock()
	e.op(kind, err)
	opMu.Unlock()
}

// clientRound is one round of one client: a fit submitted to one
// instance, waited for, and projected against; then one-column and
// 32-column projections against the preloaded models, alternating
// between the instances.
func clientRound(e *env, cl *http.Client, c *serveCluster, in *serveInput, tc *trace.Tracer, cs *clientStats, ci, r int, tag string) error {
	inst := func(q int) *instance { return c.ins[(q+ci+r)%len(c.ins)] }
	start := time.Now()

	id := fmt.Sprintf("fit-%s-%d-%d", tag, ci, r)
	fitBody := in.fitBody(id)
	sp := tc.Begin(trace.CatRequest, "http.fit")
	t := time.Now()
	info, shard, err := fitJob(cl, inst(0).addr, fitBody)
	sp.End()
	countOp(e, "fit", err)
	if err != nil {
		return fmt.Errorf("fit %s: %w", id, err)
	}
	cs.fits = append(cs.fits, info.Finished.Sub(t).Seconds())
	j := r % serveFitN
	var resp serve.ProjectResponse
	body, err := json.Marshal(serve.ProjectRequest{Model: id, Column: in.fitA.SubmatrixCols(j, j+1).Data})
	if err == nil {
		err = postJSON(cl, shard, "/v1/project", body, &resp)
	}
	countOp(e, "project_fitted", err)
	if err != nil {
		return fmt.Errorf("projecting onto fitted model %s: %w", id, err)
	}
	cs.fitRecs = append(cs.fitRecs, fitRec{id: id, info: info, proj: &projRec{model: id, cols: []int{j}, resp: resp}})

	for q := 0; q < serveSingles; q++ {
		mi := (q + ci + r) % serveModels
		col := (q*7 + r + ci) % (2 * serveExact)
		var resp serve.ProjectResponse
		sp := tc.Begin(trace.CatRequest, "http.project/1")
		t := time.Now()
		err := postJSON(cl, inst(q).addr, "/v1/project", in.single[mi][col], &resp)
		cs.b1 = append(cs.b1, ms(time.Since(t)))
		sp.End()
		countOp(e, "project_b1", err)
		if err != nil {
			return fmt.Errorf("one-column projection: %w", err)
		}
		cs.projs = append(cs.projs, projRec{model: modelID(mi), cols: []int{col}, resp: resp})
	}
	for b := 0; b < serveBatches; b++ {
		mi := (b + ci + r) % serveModels
		half := (b + r) % 2
		var resp serve.ProjectResponse
		sp := tc.Begin(trace.CatRequest, "http.project/32")
		t := time.Now()
		err := postJSON(cl, inst(b).addr, "/v1/project", in.batch[mi][half], &resp)
		cs.b32 = append(cs.b32, ms(time.Since(t)))
		sp.End()
		countOp(e, "project_b32", err)
		if err != nil {
			return fmt.Errorf("32-column projection: %w", err)
		}
		idx := make([]int, batchCols)
		for i := range idx {
			idx[i] = half*batchCols + i
		}
		cs.projs = append(cs.projs, projRec{model: modelID(mi), cols: idx, resp: resp})
	}
	cols := 1 + serveSingles + serveBatches*batchCols
	cs.rates = append(cs.rates, float64(cols)/time.Since(start).Seconds())
	return nil
}

// serveQuietFits is how many fits quietFits times.
const serveQuietFits = 5

// quietFits submits fits one at a time with no other traffic and
// returns the process CPU seconds each took from submit to done (with
// two clients projecting, the process CPU cannot be split among the
// requests), and the jobs for checking.
func quietFits(e *env, c *serveCluster, in *serveInput) ([]float64, *clientStats, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	cs := &clientStats{}
	var cpu []float64
	for i := 0; i < serveQuietFits; i++ {
		id := fmt.Sprintf("fit-alone-%d", i)
		body := in.fitBody(id)
		c0 := cpuSeconds()
		info, _, err := fitJob(cl, c.ins[i%len(c.ins)].addr, body)
		cpu = append(cpu, cpuSeconds()-c0)
		countOp(e, "fit", err)
		if err != nil {
			return nil, nil, fmt.Errorf("fit %s: %w", id, err)
		}
		cs.fitRecs = append(cs.fitRecs, fitRec{id: id, info: info})
	}
	return cpu, cs, nil
}

// postJSON posts body and decodes a 200 response into out.
func postJSON(cl *http.Client, addr, path string, body []byte, out any) error {
	resp, err := cl.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fitJob submits a fit, follows the job's progress stream on the shard
// that accepted it until the terminal record, and returns that record
// and the shard.
func fitJob(cl *http.Client, addr string, body []byte) (serve.JobInfo, string, error) {
	var info serve.JobInfo
	resp, err := cl.Post("http://"+addr+"/v1/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, "", err
	}
	var acc struct {
		Job string `json:"job"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return info, "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return info, "", err
	}
	shard := resp.Header.Get(cluster.ShardHeader)
	if shard == "" {
		shard = addr
	}
	pr, err := cl.Get("http://" + shard + "/v1/jobs/" + acc.Job + "/progress")
	if err != nil {
		return info, shard, err
	}
	defer pr.Body.Close()
	var last []byte
	sc := bufio.NewScanner(pr.Body)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return info, shard, err
	}
	if err := json.Unmarshal(last, &info); err != nil {
		return info, shard, fmt.Errorf("decoding the job's terminal record: %w", err)
	}
	if info.State != serve.JobDone {
		return info, shard, fmt.Errorf("job %s ended %s: %s", acc.Job, info.State, info.Error)
	}
	return info, shard, nil
}

// checkServe checks every kept response: each projection against its
// model's planted basis (and, for exact columns, recovery of h₀), and
// each fit's committed basis, read back through the store, with its
// rel_err against the planted floor.
func checkServe(c *serveCluster, in *serveInput, stats []*clientStats) error {
	grams := make([][]float64, serveModels)
	for i, w := range in.w0 {
		grams[i] = plainGram(w)
	}
	for _, cs := range stats {
		for _, p := range cs.projs {
			var mi int
			fmt.Sscanf(p.model, "m%d", &mi)
			if len(p.resp.H) != len(p.cols) || len(p.resp.Residuals) != len(p.cols) {
				return fmt.Errorf("projection onto %s returned %d columns, want %d", p.model, len(p.resp.H), len(p.cols))
			}
			for q, col := range p.cols {
				if err := checkProjection(in.w0[mi], grams[mi], in.cols[mi][col], p.resp.H[q], p.resp.Residuals[q]); err != nil {
					return fmt.Errorf("projection onto %s, column %d: %w", p.model, col, err)
				}
				if col < serveExact {
					if err := checkRecovery(p.resp.H[q], in.h0[mi][col]); err != nil {
						return fmt.Errorf("projection onto %s, exact column %d: %w", p.model, col, err)
					}
				}
			}
		}
		for _, f := range cs.fitRecs {
			m, err := c.st.Get(f.id)
			if err != nil {
				return fmt.Errorf("reading fitted model %s back from the store: %w", f.id, err)
			}
			if err := checkNonnegFinite(f.id+".W", m.W); err != nil {
				return err
			}
			if err := checkFloor(f.info.RelErr, in.floor, serveFloorFactor); err != nil {
				return fmt.Errorf("fit %s: %w", f.id, err)
			}
			if f.proj == nil {
				continue
			}
			j := f.proj.cols[0]
			if len(f.proj.resp.H) != 1 {
				return fmt.Errorf("projection onto fitted model %s returned %d columns", f.id, len(f.proj.resp.H))
			}
			col := in.fitA.SubmatrixCols(j, j+1).Data
			if err := checkProjection(m.W, plainGram(m.W), col, f.proj.resp.H[0], f.proj.resp.Residuals[0]); err != nil {
				return fmt.Errorf("projection onto fitted model %s: %w", f.id, err)
			}
		}
	}
	return nil
}
