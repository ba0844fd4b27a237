package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/hurricane"
	"repro/internal/scenario"
	"repro/internal/serve"
)

const (
	scheme     = "krasowska2021"
	compressor = "sz3"
	hotBound   = 1e-4
	// cold bounds are coldBound nudged up by a per-request sequence: no
	// bound repeats, and every seed costs the same per cell
	coldBound = 1e-4
)

var (
	hotDims   = []int{16, 16, 16}
	hotFields = []string{"P", "TC", "QVAPOR", "CLOUD"}
	hotSteps  = 16
	coldDims  = hurricane.DefaultDims // the kernel reference grid, 32x64x64
	// 8 fields x 48 steps x 512 KiB = 192 MiB, more than the node's
	// default 128 MiB memory tier, so the spill tier serves part of it.
	// P is left out: its quantized entropy at this bound costs about ten
	// times any other field's, and as one field in eight it would put a
	// cliff in the latency distribution at p88, next to the p90 reported.
	coldFields = []string{"CLOUD", "PRECIP", "QRAIN", "QSNOW", "TC", "U", "V", "W"}
	coldSteps  = hurricane.Timesteps
	// the default memory tier holds 128 MiB / 512 KiB = 256 cells
	coldWarmCells = 256

	// the priming fit; predicts are served by the model it publishes
	primeTraining = serve.TrainingSpec{
		Fields: []string{"P", "CLOUD"}, Steps: 4, Dims: hotDims, Bounds: []float64{1e-4, 1e-3},
	}
	primeFit = serve.FitRequest{Scheme: scheme, Compressor: compressor, Training: primeTraining}
	topology = scenario.Topology{Nodes: 2, ProbeIntervalMS: 50, PollIntervalMS: 10}
)

// predict-hot mixes request shapes as the repository's twin batch
// scenarios offer them: single predicts at 30 qps (batch-single.json)
// against batches at 20 qps (batch.json), so 3 ops in 5 are single
// predicts and 2 in 5 columnar batches.
const hotSingles, hotShapes = 3, 5

// servingSpec fixes one serving workload's load shape.
type servingSpec struct {
	cold     bool
	openRate float64 // predict ops/s offered in the latency phase
	tailPct  float64 // the percentile lat_tail_ms reports
	// lat_tail_ms is the median of each latency slice's tail, rather
	// than the tail of the pooled phase, which mostly measures the
	// phase's worst burst; a cold slice holds too few samples for its
	// tail
	tailPerSlice bool
}

// Each open-loop rate is an eighth of the workload's closed-loop
// capacity_rps, rounded to 10 ops/s: medians of ten runs on a 2-vCPU
// Xeon KVM guest were about 2000 req/s hot and 150 req/s cold. At an
// eighth of capacity a request rarely queues behind another, so lat_*
// read the service time; even a run on a host a third slower stays
// under a fifth of its capacity. At a fifth of capacity (400 ops/s hot)
// the hot p95 spread twice as much between runs.
var servingSpecs = map[string]servingSpec{
	"predict-hot":  {openRate: 250, tailPct: 95, tailPerSlice: true},
	"predict-cold": {cold: true, openRate: 20, tailPct: 90},
}

// deployment is one release-built predictd cluster on loopback.
type deployment struct {
	h      *scenario.Harness
	client *http.Client // at most nproc connections per host
	model  modelInfo
	pids   []string // node processes, for their peak RSS
}

// nodePIDs finds the node processes of a deployment by their -store
// argument (the harness does not expose its process handles).
func nodePIDs(h *scenario.Harness) ([]string, error) {
	want := map[string]bool{}
	for _, p := range h.Nodes {
		want[filepath.Join(p.Dir, "store")] = true
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var pids []string
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		args := strings.Split(string(raw), "\x00")
		for i := 0; i+1 < len(args); i++ {
			if args[i] == "-store" && want[args[i+1]] {
				pids = append(pids, e.Name())
			}
		}
	}
	if len(pids) != len(h.Nodes) {
		return nil, fmt.Errorf("found %d of %d node processes", len(pids), len(h.Nodes))
	}
	return pids, nil
}

// peakRSSMiB is the highest peak resident set (VmHWM) of the nodes.
func (d *deployment) peakRSSMiB() float64 {
	peak := 0.0
	for _, pid := range d.pids {
		peak = max(peak, vmHWMMiB(pid))
	}
	return peak
}

type modelInfo struct {
	Key, SHA string
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// nodeBase is the URL of the named node, or the router for an unknown
// name.
func (d *deployment) nodeBase(name string) string {
	for _, p := range d.h.Nodes {
		if p.Name == name {
			return p.Base
		}
	}
	return d.h.Router.Base
}

// live holds every deployment not yet closed, so a run that dies of a
// bug still stops the daemons it started (see main).
var (
	liveMu sync.Mutex
	live   = map[*deployment]bool{}
)

func (d *deployment) close() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	d.client.CloseIdleConnections()
	d.h.Close()
}

func closeAll() {
	liveMu.Lock()
	ds := make([]*deployment, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.close()
	}
}

// httpReply is one response: status, body and the router's X-Served-By.
type httpReply struct {
	status   int
	body     []byte
	servedBy string
}

func do(ctx context.Context, c *http.Client, method, url string, body any) (httpReply, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return httpReply{}, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return httpReply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return httpReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpReply{}, err
	}
	return httpReply{status: resp.StatusCode, body: raw, servedBy: resp.Header.Get("X-Served-By")}, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	r, err := do(ctx, c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, r.status, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// seedSpill links the cached reference-grid corpus into a spill
// directory with the digest sidecars the dataset cache verifies, so a
// cache over that directory starts with the cold set on its disk tier.
func seedSpill(spill string, corpus string, m *dataset.Manifest) error {
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	for _, e := range m.Entries {
		dst := filepath.Join(spill, e.File)
		if err := os.Link(filepath.Join(corpus, e.File), dst); err != nil {
			return err
		}
		if err := os.WriteFile(dst+".sha256", []byte(e.SHA256+"\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fitResult is one fit's client-side timings.
type fitResult struct {
	AckMS  float64
	DoneS  float64
	Model  string
	Served string // the node that ran it (X-Served-By)
}

// fit submits a training job through the router and waits for it to
// finish, timing the 202 (journal fsync + replication ack barrier) and
// the job reaching done.
func fit(ctx context.Context, c *http.Client, base string, req serve.FitRequest) (fitResult, error) {
	start := time.Now()
	r, err := do(ctx, c, http.MethodPost, base+"/v1/fit", req)
	if err != nil {
		return fitResult{}, err
	}
	ack := time.Since(start)
	if r.status != http.StatusAccepted {
		return fitResult{}, fmt.Errorf("fit: HTTP %d: %s", r.status, r.body)
	}
	var fr serve.FitResponse
	if err := json.Unmarshal(r.body, &fr); err != nil || fr.JobID == "" || fr.Existing {
		return fitResult{}, fmt.Errorf("fit: bad 202 body %s", r.body)
	}
	for {
		var jv serve.JobView
		if err := getJSON(ctx, c, base+"/v1/jobs/"+fr.JobID, &jv); err != nil {
			return fitResult{}, err
		}
		switch jv.Status {
		case "done":
			return fitResult{
				AckMS: float64(ack) / float64(time.Millisecond),
				DoneS: time.Since(start).Seconds(),
				Model: jv.Model, Served: r.servedBy,
			}, nil
		case "failed":
			return fitResult{}, fmt.Errorf("fit %s failed: %s", fr.JobID, jv.Error)
		}
		select {
		case <-ctx.Done():
			return fitResult{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// models lists the registry through base, keyed by model key.
func models(ctx context.Context, c *http.Client, base string) (map[string]string, error) {
	var views []struct {
		Key string `json:"key"`
		SHA string `json:"state_sha256"`
	}
	if err := getJSON(ctx, c, base+"/v1/models", &views); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, v := range views {
		out[v.Key] = v.SHA
	}
	return out, nil
}

// deploy brings up a fresh cluster, fits the priming model and warms the
// workload's read path.
func deploy(ctx context.Context, env *runEnv, w *workload, workDir string) (*deployment, error) {
	os.RemoveAll(workDir)
	if w.spec.cold {
		for i := 1; i <= topology.Nodes; i++ {
			// the harness names node i "n<i>" and spills under <dir>/spill
			spill := filepath.Join(workDir, fmt.Sprintf("n%d", i), "spill")
			if err := seedSpill(spill, env.corpusDir, env.corpus); err != nil {
				return nil, fmt.Errorf("seeding spill tier: %w", err)
			}
		}
	}
	h, err := scenario.Deploy(ctx, env.predictd, workDir, topology)
	if err != nil {
		return nil, err
	}
	d := &deployment{h: h, client: newClient(env.nproc)}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	if d.pids, err = nodePIDs(h); err != nil {
		d.close()
		return nil, err
	}
	pf, err := fit(ctx, d.client, h.Router.Base, primeFit)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("priming fit: %w", err)
	}
	// the partition owner (which ran the fit) lists the model it published
	ms, err := models(ctx, d.client, d.nodeBase(pf.Served))
	if err != nil || ms[pf.Model] == "" {
		d.close()
		return nil, fmt.Errorf("priming model %q not listed by %s: %v", pf.Model, pf.Served, err)
	}
	d.model = modelInfo{Key: pf.Model, SHA: ms[pf.Model]}
	w.checkKeys = w.keyCheck(d)
	if err := w.warm(ctx, d.client, h.Router.Base); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// workload generates one serving workload's predict ops from the seed.
type workload struct {
	spec servingSpec
	seed int64
	// coldSeq numbers cold predicts so each carries a bound no earlier
	// request used
	coldSeq   atomic.Int64
	fitSeq    atomic.Int64
	checkKeys func(key string) error
}

func newWorkload(name string, seed int64) (*workload, error) {
	spec, ok := servingSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown serving workload %q", name)
	}
	return &workload{spec: spec, seed: seed}, nil
}

// mix is splitmix64 over (a, b): the per-op seeded choice without a
// per-op RNG.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// predictOp is one predict request: its path, body, and how many
// predictions it carries.
type predictOp struct {
	path  string
	body  any
	preds int
}

// opFor derives op i of a phase from the seed. phase separates the
// streams of the warm-up, capacity and latency phases.
func (w *workload) opFor(phase, i int) predictOp {
	h := mix(uint64(w.seed), uint64(phase)<<32|uint64(i))
	if w.spec.cold {
		// fields in turn from a seeded start, steps seeded: every stretch
		// of eight ops costs about the same, whatever the seed
		field := (i + int(uint64(w.seed)%uint64(len(coldFields)))) % len(coldFields)
		return w.coldOp(field*coldSteps + int(h%uint64(coldSteps)))
	}
	cells := len(hotFields) * hotSteps
	if h%hotShapes < hotSingles {
		cell := int((h >> 8) % uint64(cells))
		return predictOp{path: "/v1/predict", preds: 1, body: serve.PredictRequest{
			Scheme: scheme, Compressor: compressor,
			Options: map[string]any{"pressio:abs": hotBound},
			Data:    &serve.DataRef{Field: hotFields[cell/hotSteps], Step: cell % hotSteps, Dims: hotDims},
		}}
	}
	n := 16 + int((h>>8)%17)
	first := int((h >> 16) % uint64(cells))
	req := serve.BatchRequest{
		Scheme: scheme, Compressor: compressor,
		Options: map[string]any{"pressio:abs": hotBound}, Dims: hotDims,
	}
	for k := 0; k < n; k++ {
		cell := (first + k) % cells
		req.Fields = append(req.Fields, hotFields[cell/hotSteps])
		req.Steps = append(req.Steps, cell%hotSteps)
	}
	return predictOp{path: "/v1/predict/batch", body: req, preds: n}
}

// coldOp is a single predict of a cold-set cell under a bound no earlier
// request carried, so neither result cache can answer it.
func (w *workload) coldOp(cell int) predictOp {
	bound := coldBound * (1 + 1e-7*float64(w.coldSeq.Add(1)))
	return predictOp{path: "/v1/predict", preds: 1, body: serve.PredictRequest{
		Scheme: scheme, Compressor: compressor,
		Options: map[string]any{"pressio:abs": bound},
		Data:    &serve.DataRef{Field: coldFields[cell/coldSteps], Step: cell % coldSteps, Dims: coldDims},
	}}
}

// check validates one predict reply: 2xx, finite predictions, no item
// errors, and a model key the check accepts.
func (w *workload) check(op predictOp, r httpReply) error {
	if r.status < 200 || r.status >= 300 {
		return fmt.Errorf("%s: HTTP %d: %s", op.path, r.status, bytes.TrimSpace(r.body))
	}
	var model string
	var preds []float64
	if op.path == "/v1/predict" {
		var pr serve.PredictResponse
		if err := json.Unmarshal(r.body, &pr); err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		model, preds = pr.Model, []float64{pr.Prediction}
	} else {
		var br serve.BatchResponse
		if err := json.Unmarshal(r.body, &br); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if br.Errors != 0 || br.Count != op.preds || len(br.Results) != op.preds {
			return fmt.Errorf("batch: %d items, %d results, %d errors", op.preds, len(br.Results), br.Errors)
		}
		model = br.Model
		for _, it := range br.Results {
			preds = append(preds, it.Prediction)
		}
	}
	if !finiteAll(preds) {
		return fmt.Errorf("%s: non-finite prediction %v", op.path, preds)
	}
	return w.checkKeys(model)
}

// predict issues op through base and checks its reply.
func (w *workload) predict(ctx context.Context, c *http.Client, base string, op predictOp) (httpReply, error) {
	r, err := do(ctx, c, http.MethodPost, base+op.path, op.body)
	if err != nil {
		return r, err
	}
	return r, w.check(op, r)
}

const (
	phaseWarm = iota + 1
	phaseCapacity
	phaseLatency
	phaseTrace
)

// warm runs the read path until its caches are in steady state: every
// hot cell once (fills the cell cache), or every cold cell once (fills
// the memory tier and leaves the rest on the spill tier), then a short
// closed loop to settle connections and the heap.
func (w *workload) warm(ctx context.Context, c *http.Client, base string) error {
	if w.spec.cold {
		// enough cells to fill the memory tier; the rest of the set stays
		// on the spill tier it was seeded on
		var failed error
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := atomic.Int64{}
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					cell := int(next.Add(1) - 1)
					if cell >= coldWarmCells {
						return
					}
					if _, err := w.predict(ctx, c, base, w.coldOp(cell)); err != nil {
						mu.Lock()
						failed = err
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		return failed
	}
	req := serve.BatchRequest{
		Scheme: scheme, Compressor: compressor,
		Options: map[string]any{"pressio:abs": hotBound}, Dims: hotDims,
	}
	for _, f := range hotFields {
		for s := 0; s < hotSteps; s++ {
			req.Fields = append(req.Fields, f)
			req.Steps = append(req.Steps, s)
		}
	}
	if _, err := w.predict(ctx, c, base, predictOp{path: "/v1/predict/batch", body: req, preds: len(req.Fields)}); err != nil {
		return err
	}
	res := closedLoop(ctx, 2, 500*time.Millisecond, func(ctx context.Context, i int) (int, error) {
		op := w.opFor(phaseWarm, i)
		_, err := w.predict(ctx, c, base, op)
		return op.preds, err
	})
	if res.Failed > 0 {
		return res.Errs[0]
	}
	return nil
}

// probeCompressor is the compressor of the timed fits. They train the
// predicts' scheme on the same cells, but in the (scheme, zfp)
// partition: a fit publishes a model for its partition, and one
// published in the predicts' partition would turn the predicts after it
// into misses. So fits can be timed between the predict slices of a run.
const probeCompressor = "zfp"

// fitProbe is timed fit k: its own opthash (no dedup with the priming
// fit or another fit) at the priming fit's cell count.
func (w *workload) fitProbe(k int64) serve.FitRequest {
	tr := primeTraining
	tr.Bounds = []float64{1e-4, 1e-3 * (1 + 1e-3*float64(k) + 1e-9*float64(w.seed%1000))}
	return serve.FitRequest{Scheme: scheme, Compressor: probeCompressor, Training: tr}
}

// servingRun is everything a measured serving run collects.
type servingRun struct {
	setupS    []float64
	capSlices slices       // closed loop, predicts
	latSlices slices       // open loop, predicts
	capacity  *phaseResult // capSlices pooled
	latency   *phaseResult // latSlices pooled
	probes    *phaseResult // fits timed between the predict slices
	fits      []fitResult
	probe     *probeResult
	stats     statzDelta
	router    cluster.RouterStatus
	rssMiB    float64
	// the window of the tail latency (0: the whole phase)
	tailWindow time.Duration
}

// attempted and failed count every op the run issued.
func (run *servingRun) phases() []*phaseResult {
	return []*phaseResult{run.capacity, run.latency, run.probes}
}

func (run *servingRun) attempted() int {
	n := 0
	for _, ph := range run.phases() {
		n += ph.Attempted
	}
	return n
}

func (run *servingRun) failed() int {
	n := 0
	for _, ph := range run.phases() {
		n += ph.Failed
	}
	return n
}

// failShare is taken over the ops whose number the workload fixes, the
// open-loop schedule and the fit probes; a failure in the closed-loop
// capacity phase, whose op count follows the machine's speed, already
// makes the run incorrect.
func (run *servingRun) failShare() float64 {
	return failShare(run.latency.Failed+run.probes.Failed, run.latency.Attempted+run.probes.Attempted)
}

// servingRounds is how many slices the capacity phase, the latency phase
// and the fit probes are each cut into; the offline probe repeats every
// probeEvery rounds. A round runs one slice of each, and the rounds
// follow one another over the run, so each figure samples the host over
// the whole run rather than in one spell of its speed (see slices).
const (
	servingRounds = 8
	probeEvery    = 2
)

// measureServing is the measured (untraced) run of a serving workload:
// set-up (repeated, the last deployment is kept), then servingRounds
// rounds of a closed-loop capacity slice, an open-loop latency slice at
// the workload's fixed rate, a slice of the fit probes and, every
// probeEvery rounds, a repeat of the offline probe.
func measureServing(ctx context.Context, env *runEnv, w *workload, seconds float64, spin *spinner) (*servingRun, error) {
	run := &servingRun{probes: &phaseResult{}}
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		d, err = deploy(ctx, env, w, filepath.Join(env.work, fmt.Sprintf("deploy%d", rep)))
		if err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, time.Since(start).Seconds())
	}
	defer d.close()

	base := d.h.Router.Base
	before, err := d.h.Statz(ctx)
	if err != nil {
		return nil, err
	}
	span := time.Duration(seconds * float64(time.Second))
	capSpan := span * 2 / 5
	capSlice, latSlice := capSpan/servingRounds, (span-capSpan)/servingRounds
	if w.spec.tailPerSlice {
		run.tailWindow = latSlice
	}
	probe := &offlineProbe{}
	poll := time.Duration(topology.PollIntervalMS) * time.Millisecond
	fitsStart := time.Now()
	var fitsWall time.Duration
	for r := 0; r < servingRounds; r++ {
		first := r << 20 // each slice sends its own seeded ops
		run.capSlices = append(run.capSlices, closedLoop(ctx, env.nproc, capSlice, func(ctx context.Context, i int) (int, error) {
			op := w.opFor(phaseCapacity, first+i)
			_, err := w.predict(ctx, d.client, base, op)
			return op.preds, err
		}))
		due := jitteredSchedule(w.seed+int64(r)<<32, w.spec.openRate, latSlice)
		run.latSlices = append(run.latSlices, openLoop(ctx, due, func(ctx context.Context, i int) (int, error) {
			op := w.opFor(phaseLatency, first+i)
			_, err := w.predict(ctx, d.client, base, op)
			return op.preds, err
		}))

		// fits one at a time, each sent at its step of the poll phase
		// once the previous fit's replication has had a few polls to
		// settle
		sliceStart := time.Now()
		for k := r * fitProbes / servingRounds; k < (r+1)*fitProbes/servingRounds && ctx.Err() == nil; k++ {
			at := time.Since(fitsStart)
			time.Sleep(pollPhase(poll, at+3*poll, k, w.seed) - at)
			fr, err := fit(ctx, d.client, base, w.fitProbe(w.fitSeq.Add(1)))
			if err == nil {
				run.fits = append(run.fits, fr)
			}
			run.probes.record(time.Since(fitsStart), 0, 0, err)
		}
		fitsWall += time.Since(sliceStart)

		if r%probeEvery != 0 {
			continue
		}
		// the probe is in-process work, which runs without the spinner
		// (see idle.go)
		if err := spin.pause(); err != nil {
			return nil, err
		}
		err := probe.rep(ctx, env)
		if rerr := spin.resume(); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
	}
	run.capacity, run.latency = run.capSlices.pooled(), run.latSlices.pooled()
	run.probes.Wall = fitsWall
	run.probe = probe.result()
	after, err := d.h.Statz(ctx)
	if err != nil {
		return nil, err
	}
	run.stats = delta(before, after)
	run.rssMiB = d.peakRSSMiB()
	if err := getJSON(ctx, d.client, base+"/v1/router/status", &run.router); err != nil {
		return nil, err
	}
	return run, nil
}

const (
	setupReps = 3
	// fits timed in a run: three poll-phase cycles, about 5 s on a 2-vCPU
	// Xeon VM
	fitProbes = 3 * fitPhases
)

// keyCheck returns the model-key check for predict replies: every reply
// must name the priming model, the partition's current /v1/models key.
func (w *workload) keyCheck(d *deployment) func(string) error {
	want := d.model.Key
	return func(key string) error {
		if key != want {
			return fmt.Errorf("served by model %q, current model is %q", key, want)
		}
		return nil
	}
}

// fitAckMS and fitDoneS project fit timings.
func fitAckMS(fits []fitResult) []float64 {
	out := make([]float64, len(fits))
	for i, f := range fits {
		out[i] = f.AckMS
	}
	return out
}

func fitDoneS(fits []fitResult) []float64 {
	out := make([]float64, len(fits))
	for i, f := range fits {
		out[i] = f.DoneS
	}
	return out
}
