package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hurricane"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/serve"
	"repro/internal/store"
)

// handlerTransport serves requests in-process through a handler, so the
// same client code drives the deployed cluster and serve.New(...).Handler().
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

const inProcBase = "http://in-process"

// traceOps is how many predicts each attribution pass replays, and
// traceFits how many fits time the ack barrier on each side.
func traceOps(w *workload) int {
	if w.spec.cold {
		return 40
	}
	return 200
}

const traceFits = 6

// pass is one attribution pass: the ops it replayed, in order, and the
// replies.
type pass struct {
	p50     float64
	ops     []predictOp
	replies []httpReply
}

// replay sends n seeded predicts sequentially through base, each in a
// root span named name.
func replay(ctx context.Context, tr *tracer, name string, c *http.Client, base func(int) string, w *workload, n int) (*pass, error) {
	p := &pass{}
	var lat []float64
	for i := 0; i < n; i++ {
		op := w.opFor(phaseTrace, i)
		var r httpReply
		start := time.Now()
		err := tr.do(name, -1, i, func(int) error {
			var err error
			r, err = w.predict(ctx, c, base(i), op)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s pass, op %d: %w", name, i, err)
		}
		lat = append(lat, msSinceWall(start))
		p.ops, p.replies = append(p.ops, op), append(p.replies, r)
	}
	p.p50 = median(lat)
	return p, nil
}

// traceServing is the traced run of a serving workload. It measures the
// untraced and traced open loop at the workload's rate (their p50s give
// the tracing overhead), then replays the same seeded predicts through
// the router, directly to the serving node, in-process through
// serve.New(...).Handler(), and through the library chain; self time per
// layer is the difference between adjacent passes.
func traceServing(ctx context.Context, env *runEnv, w *workload, rep *report) error {
	zeroLayers(rep)
	tr := newTracer()
	d, err := deploy(ctx, env, w, filepath.Join(env.work, "deploy-trace"))
	if err != nil {
		return err
	}
	defer d.close()
	base := d.h.Router.Base

	// open loop, untraced then traced, on one seeded schedule
	span := time.Duration(env.seconds * float64(time.Second) / 4)
	due := jitteredSchedule(w.seed, w.spec.openRate, span)
	openOp := func(traced bool) opFunc {
		return func(ctx context.Context, i int) (int, error) {
			op := w.opFor(phaseLatency, i)
			if !traced {
				_, err := w.predict(ctx, d.client, base, op)
				return op.preds, err
			}
			err := tr.do("op", -1, i, func(id int) error {
				return tr.do("http", id, i, func(int) error {
					_, err := w.predict(ctx, d.client, base, op)
					return err
				})
			})
			return op.preds, err
		}
	}
	plain := openLoop(ctx, due, openOp(false))
	traced := openLoop(ctx, due, openOp(true))
	for _, ph := range []*phaseResult{plain, traced} {
		if ph.Failed > 0 {
			return fmt.Errorf("traced open loop: %v", ph.Errs[0])
		}
	}
	rep.setLayer("gen.late_p99_ms", quantile(append(plain.LateMS, traced.LateMS...), 0.99))
	loadedP50 := median(traced.LatMS)
	rep.setLayer("trace.overhead_share", loadedP50/median(plain.LatMS)-1)

	// passes 1 and 2: through the router, then straight to the node that
	// served each op
	before, err := d.h.Statz(ctx)
	if err != nil {
		return err
	}
	n := traceOps(w)
	routed, err := replay(ctx, tr, "cluster.router", d.client, func(int) string { return base }, w, n)
	if err != nil {
		return err
	}
	direct, err := replay(ctx, tr, "serve.transport", d.client, func(i int) string { return d.nodeBase(routed.replies[i].servedBy) }, w, n)
	if err != nil {
		return err
	}
	after, err := d.h.Statz(ctx)
	if err != nil {
		return err
	}
	sd := delta(before, after)
	rep.setLayer("serve.hit_ratio", sd.hitRatio())
	rep.setLayer("serve.cache_hits", float64(sd.CacheHits))
	rep.setLayer("serve.cell_hits", float64(sd.CellHits))
	rep.setLayer("serve.coalesced_hits", float64(sd.CoalescedHits))
	rep.setLayer("serve.cache_misses", float64(sd.CacheMisses))
	rep.setLayer("serve.dedup_collapses", float64(sd.DedupCollapses))
	rep.setLayer("serve.rejected", float64(sd.Rejected))
	rep.setLayer("serve.gc_pause_p99_ms", sd.GCPauseP99MS)
	rep.setLayer("serve.heap_mib", sd.HeapMiB)
	var rs cluster.RouterStatus
	if err := getJSON(ctx, d.client, base+"/v1/router/status", &rs); err != nil {
		return err
	}
	rep.setLayer("cluster.repins", float64(rs.Repins))
	rep.setLayer("cluster.failovers", float64(rs.Failovers))

	// fits on the cluster: 202 after journal fsync and the ack barrier
	var clusterAck []float64
	for k := 0; k < traceFits; k++ {
		fr, err := fit(ctx, d.client, base, w.fitProbe(w.fitSeq.Add(1)))
		if err != nil {
			return err
		}
		clusterAck = append(clusterAck, fr.AckMS)
	}

	// pass 3: the same binary's serving code in-process
	ip, err := newInProcess(ctx, env, w, d.model)
	if err != nil {
		return err
	}
	defer ip.close()
	inproc, err := replay(ctx, tr, "serve.handler", ip.client, func(int) string { return inProcBase }, w, n)
	if err != nil {
		return err
	}
	var soloAck []float64
	for k := 0; k < traceFits; k++ {
		fr, err := fit(ctx, ip.client, inProcBase, w.fitProbe(w.fitSeq.Add(1)))
		if err != nil {
			return err
		}
		soloAck = append(soloAck, fr.AckMS)
	}
	rep.setLayer("cluster.router_hop_ms", routed.p50-direct.p50)
	rep.setLayer("serve.transport_ms", direct.p50-inproc.p50)
	rep.setLayer("serve.handler_ms", inproc.p50)
	rep.setLayer("cluster.ack_wait_ms", median(clusterAck)-median(soloAck))
	// the sequential passes decompose an unloaded request; what the
	// loaded p50 has beyond that (queueing, contention) is unattributed
	rep.setLayer("trace.unattributed_share", 1-routed.p50/loadedP50)
	rep.setLayer("opthash.combine_us", combineUS())

	// pass 4: the library chain, which must reproduce the served
	// predictions bit for bit
	if err := chainLayers(env, tr, w, ip, routed, rep); err != nil {
		return err
	}
	if err := fitChain(tr, w, d.model, rep); err != nil {
		return err
	}

	probeDir := filepath.Join(env.work, "trace-probe")
	os.RemoveAll(probeDir)
	spec := probeSpec(env, probeDir)
	if err := pipelineLayers(ctx, spec, rep); err != nil {
		return err
	}
	if err := kernelLayers(tr, spec, filepath.Join(env.work, "trace-kernel-store"), rep); err != nil {
		return err
	}
	rep.attempted = plain.Attempted + traced.Attempted + 3*n + 2*traceFits
	rep.infof("attribution over %d sequential predicts: router p50 %.3f ms, direct %.3f ms, in-process handler %.3f ms; loaded (traced) p50 %.3f ms",
		n, routed.p50, direct.p50, inproc.p50, loadedP50)
	return writeSpans(env, tr, rep)
}

func writeSpans(env *runEnv, tr *tracer, rep *report) error {
	dir := filepath.Join(env.build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", env.workload, env.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.infof("spans: %d written to %s", len(tr.snapshot()), path)
	return nil
}

// inProcess is serve.New(...).Handler() behind an http.Client.
type inProcess struct {
	srv    *serve.Server
	st     *store.Store
	client *http.Client
	pred   core.Predictor
}

// newInProcess builds the in-process server with the node's dataset
// cache layout, fits the priming model through its handler and checks
// the refit is byte-identical to the cluster's model.
func newInProcess(ctx context.Context, env *runEnv, w *workload, model modelInfo) (*inProcess, error) {
	dir := filepath.Join(env.work, "in-process")
	os.RemoveAll(dir)
	spill := filepath.Join(dir, "spill")
	if w.spec.cold {
		if err := seedSpill(spill, env.corpusDir, env.corpus); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	// predictd fsyncs its journal (-fsync defaults to true); so must the
	// in-process server, or cluster.ack_wait_ms would count the fsync
	st.Sync = true
	srv, err := serve.New(st, serve.Config{DataSpillDir: spill})
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := srv.Recover(ctx); err != nil {
		st.Close()
		return nil, err
	}
	ip := &inProcess{srv: srv, st: st, client: &http.Client{Transport: handlerTransport{srv.Handler()}}}
	if err := ip.prime(ctx, model); err != nil {
		ip.close()
		return nil, err
	}
	if err := w.warm(ctx, ip.client, inProcBase); err != nil {
		ip.close()
		return nil, err
	}
	return ip, nil
}

// prime fits the priming model through the handler; the refit must be
// byte-identical to the cluster's model.
func (ip *inProcess) prime(ctx context.Context, model modelInfo) error {
	pf, err := fit(ctx, ip.client, inProcBase, primeFit)
	if err != nil {
		return err
	}
	entry, ok := ip.srv.Registry().Get(pf.Model)
	if !ok {
		return fmt.Errorf("in-process fit published no model %q", pf.Model)
	}
	if sum := sha256.Sum256(entry.State); hex.EncodeToString(sum[:]) != model.SHA || pf.Model != model.Key {
		return fmt.Errorf("in-process refit is not byte-identical to the cluster's model %s", model.Key)
	}
	ip.pred, err = ip.srv.Registry().Restore(entry)
	return err
}

func (ip *inProcess) close() {
	ip.srv.Drain()
	ip.st.Close()
}

// cellFeatures replicates the server's feature computation for one cell
// under one bound, each metric in its own span.
func cellFeatures(tr *tracer, parent, op int, sch core.Scheme, data *pressio.Data, bound float64) ([]float64, error) {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, bound)
	opts.Set(predictors.OptTaoCompressor, compressor)
	opts.Set(predictors.OptKhanCompressor, compressor)
	results := pressio.Options{}
	for _, name := range sch.Metrics() {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return nil, err
		}
		if err := m.SetOptions(opts); err != nil {
			return nil, err
		}
		tr.do("metrics."+name, parent, op, func(int) error { m.BeginCompress(data); return nil })
		results.Merge(m.Results())
	}
	var f []float64
	err := tr.do("core.extract_features", parent, op, func(int) error {
		var err error
		f, err = core.ExtractFeatures(results, sch.Features())
		return err
	})
	return f, err
}

// chainLayers replays the single predicts of the attribution passes
// through TieredCache.Acquire, the scheme's metrics, feature extraction
// and the restored predictor, comparing each result with the served one.
func chainLayers(env *runEnv, tr *tracer, w *workload, ip *inProcess, routed *pass, rep *report) error {
	dir := filepath.Join(env.work, "chain-spill")
	os.RemoveAll(dir)
	dims := hotDims
	if w.spec.cold {
		dims = coldDims
		if err := seedSpill(dir, env.corpusDir, env.corpus); err != nil {
			return err
		}
	}
	cache, err := dataset.NewTiered(dataset.TieredConfig{CapacityBytes: 128 << 20, SpillDir: dir})
	if err != nil {
		return err
	}
	if w.spec.cold {
		// the node's warm-up: fill the memory tier
		for cell := 0; cell < coldWarmCells; cell++ {
			h, err := cache.Acquire(coldFields[cell/coldSteps], cell%coldSteps, dims)
			if err != nil {
				return err
			}
			h.Release()
		}
	}
	sch, err := core.GetScheme(scheme)
	if err != nil {
		return err
	}
	base := cache.Stats()
	var memUS, diskMS, missMS, predUS []float64
	checked := 0
	for i, r := range routed.replies {
		req, ok := routed.ops[i].body.(serve.PredictRequest)
		if !ok {
			continue // batch items take the same chain per cell
		}
		var served serve.PredictResponse
		if err := json.Unmarshal(r.body, &served); err != nil {
			return err
		}
		bound := req.Options["pressio:abs"].(float64)
		err := tr.do("chain", -1, i, func(root int) error {
			var h *dataset.Handle
			st0 := cache.Stats()
			start := time.Now()
			err := tr.do("dataset.acquire", root, i, func(int) error {
				var err error
				h, err = cache.Acquire(req.Data.Field, req.Data.Step, dims)
				return err
			})
			if err != nil {
				return err
			}
			defer h.Release()
			took := time.Since(start)
			switch st1 := cache.Stats(); {
			case st1.DiskHits > st0.DiskHits:
				diskMS = append(diskMS, float64(took)/float64(time.Millisecond))
			case st1.Misses > st0.Misses:
				missMS = append(missMS, float64(took)/float64(time.Millisecond))
			default:
				memUS = append(memUS, float64(took)/float64(time.Microsecond))
			}
			f, err := cellFeatures(tr, root, i, sch, h.Data(), bound)
			if err != nil {
				return err
			}
			var v float64
			start = time.Now()
			err = tr.do("predictors.predict", root, i, func(int) error {
				var err error
				v, err = ip.pred.Predict(f)
				return err
			})
			predUS = append(predUS, float64(time.Since(start))/float64(time.Microsecond))
			if err != nil {
				return err
			}
			if v != served.Prediction {
				return fmt.Errorf("library chain predicts %v for %s/%d at %g, the service served %v",
					v, req.Data.Field, req.Data.Step, bound, served.Prediction)
			}
			checked++
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(missMS) == 0 {
		// every replayed cell was resident or spilled: time the synthesis
		// path on cells no cache holds
		empty, err := dataset.NewTiered(dataset.TieredConfig{CapacityBytes: 128 << 20})
		if err != nil {
			return err
		}
		for k := 0; k < 3; k++ {
			start := time.Now()
			h, err := empty.Acquire(coldFields[k], k, dims)
			if err != nil {
				return err
			}
			missMS = append(missMS, msSinceWall(start))
			h.Release()
		}
	}
	end := cache.Stats()
	hits := end.MemHits - base.MemHits
	all := hits + end.DiskHits - base.DiskHits + end.Misses - base.Misses
	rep.setLayer("dataset.acquire_mem_us", median(memUS))
	rep.setLayer("dataset.acquire_disk_ms", median(diskMS))
	rep.setLayer("dataset.acquire_miss_ms", median(missMS))
	if all > 0 {
		rep.setLayer("dataset.mem_hit_ratio", float64(hits)/float64(all))
	}
	rep.setLayer("dataset.disk_hits", float64(end.DiskHits-base.DiskHits))
	rep.setLayer("dataset.misses", float64(end.Misses-base.Misses))
	rep.setLayer("dataset.evictions", float64(end.Evictions-base.Evictions))
	rep.setLayer("predictors.predict_us", median(predUS))
	rep.infof("library chain reproduced %d served predictions bit for bit", checked)
	if checked == 0 {
		return fmt.Errorf("library chain checked no served prediction")
	}
	return nil
}

// fitChain replays the priming fit through the library: observe every
// training cell (features and a real compressor run), fit, marshal and
// store the state. The state must hash to the cluster model's digest.
func fitChain(tr *tracer, w *workload, model modelInfo, rep *report) error {
	sch, err := core.GetScheme(scheme)
	if err != nil {
		return err
	}
	var x [][]float64
	var y []float64
	op := 0
	for _, f := range primeTraining.Fields {
		for step := 0; step < primeTraining.Steps; step++ {
			data, err := hurricane.Field(f, step, primeTraining.Dims)
			if err != nil {
				return err
			}
			for _, b := range primeTraining.Bounds {
				fv, err := cellFeatures(tr, -1, op, sch, data, b)
				if err != nil {
					return err
				}
				opts := pressio.Options{}
				opts.Set(pressio.OptAbs, b)
				var cr float64
				err = tr.do("core.observe_target", -1, op, func(int) error {
					var err error
					cr, _, _, err = core.ObserveTarget(compressor, data, opts)
					return err
				})
				if err != nil {
					return err
				}
				x, y = append(x, fv), append(y, cr)
				op++
			}
		}
	}
	var fitMS, marshalMS, restoreMS []float64
	var state []byte
	for r := 0; r < 5; r++ {
		p, err := sch.NewPredictor(compressor)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := tr.do("predictors.fit", -1, op, func(int) error { return p.Fit(x, y) }); err != nil {
			return err
		}
		fitMS = append(fitMS, msSinceWall(start))
		start = time.Now()
		err = tr.do("predictors.marshal", -1, op, func(int) error {
			var err error
			state, err = predictors.MarshalState(p)
			return err
		})
		if err != nil {
			return err
		}
		marshalMS = append(marshalMS, msSinceWall(start))
		start = time.Now()
		if _, err := predictors.RestoreState(scheme, compressor, state); err != nil {
			return err
		}
		restoreMS = append(restoreMS, msSinceWall(start))
	}
	if sum := sha256.Sum256(state); hex.EncodeToString(sum[:]) != model.SHA {
		return fmt.Errorf("library refit of the priming model is not byte-identical to %s", model.Key)
	}
	rep.setLayer("predictors.fit_ms", median(fitMS))
	rep.setLayer("predictors.marshal_ms", median(marshalMS))
	rep.setLayer("predictors.restore_ms", median(restoreMS))
	return nil
}

// traceOffline is the traced run of table2-offline: the Table-2 pipeline
// for queue and bench counts and per-scheme Evaluate, and a replay of its
// cells through the kernels, untraced and traced, for overhead and
// attribution. Serving layers are not exercised and read 0.
func traceOffline(ctx context.Context, env *runEnv, rep *report) error {
	zeroLayers(rep)
	tr := newTracer()
	storeDir := filepath.Join(env.work, "table2-store")
	os.RemoveAll(storeDir)
	spec := table2Spec(env, storeDir)
	if err := pipelineLayers(ctx, spec, rep); err != nil {
		return err
	}
	if err := kernelLayers(tr, spec, filepath.Join(env.work, "trace-kernel-store"), rep); err != nil {
		return err
	}

	// one cell end to end, untraced then traced; the traced cell's
	// children are the kernel spans
	plain, traced, unattributed, err := cellOverhead(tr, spec)
	if err != nil {
		return err
	}
	rep.setLayer("trace.overhead_share", traced/plain-1)
	rep.setLayer("trace.unattributed_share", unattributed)
	rep.setLayer("opthash.combine_us", combineUS())

	// the Table-2 predictors, fitted on every observation
	res, err := bench.CollectDetailed(ctx, spec) // served from the checkpoint store
	if err != nil {
		return err
	}
	preds, err := trainedPredictors(spec, res.Observations)
	if err != nil {
		return err
	}
	var predUS, marshalMS, restoreMS []float64
	for _, p := range preds {
		start := time.Now()
		for _, x := range p.x {
			if _, err := p.pred.Predict(x); err != nil {
				return err
			}
		}
		predUS = append(predUS, float64(time.Since(start))/float64(time.Microsecond)/float64(len(p.x)))
		if !p.pred.Trains() {
			continue
		}
		start = time.Now()
		state, err := predictors.MarshalState(p.pred)
		if err != nil {
			return err
		}
		marshalMS = append(marshalMS, msSinceWall(start))
		start = time.Now()
		if _, err := predictors.RestoreState(p.scheme, p.compressor, state); err != nil {
			return err
		}
		restoreMS = append(restoreMS, msSinceWall(start))
	}
	rep.setLayer("predictors.predict_us", median(predUS))
	rep.setLayer("predictors.marshal_ms", median(marshalMS))
	rep.setLayer("predictors.restore_ms", median(restoreMS))
	rep.setLayer("predictors.fit_ms", median(medians(fitTimes(spec, res.Observations, fitReps*table2Reps)))*1e3)
	rep.attempted = len(res.Observations)
	return writeSpans(env, tr, rep)
}

// cellOverhead observes one reference cell (synthesis, every feature
// metric, sz3) five times untraced and five times traced, and returns
// the median cell times and the traced cells' unattributed share.
func cellOverhead(tr *tracer, spec *bench.Spec) (plain, traced, unattributed float64, err error) {
	f, step, bound := spec.Fields[0], 0, spec.Bounds[0]
	cell := func(parent int) error {
		do := func(name string, fn func() error) error {
			if parent < 0 {
				return fn()
			}
			return tr.do(name, parent, 0, func(int) error { return fn() })
		}
		var data *pressio.Data
		if err := do("hurricane.field", func() error {
			var err error
			data, err = hurricane.Field(f, step, spec.Dims)
			return err
		}); err != nil {
			return err
		}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, bound)
		opts.Set(predictors.OptKhanCompressor, "sz3")
		for _, name := range featureMetrics {
			m, err := pressio.GetMetric(name)
			if err != nil {
				return err
			}
			if err := m.SetOptions(opts); err != nil {
				return err
			}
			do("metrics."+name, func() error { m.BeginCompress(data); return nil })
		}
		return do("core.observe_target", func() error {
			_, _, _, err := core.ObserveTarget("sz3", data, opts)
			return err
		})
	}
	var p, t []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		if err := cell(-1); err != nil {
			return 0, 0, 0, err
		}
		p = append(p, msSinceWall(start))
		start = time.Now()
		if err := tr.do("cell", -1, r, func(id int) error { return cell(id) }); err != nil {
			return 0, 0, 0, err
		}
		t = append(t, msSinceWall(start))
	}
	self := selfMS(tr.snapshot())
	cellSelf, err := medianSelf(self, "cell")
	if err != nil {
		return 0, 0, 0, err
	}
	return median(p), median(t), cellSelf / median(t), nil
}
