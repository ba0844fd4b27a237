package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/hurricane"
	"repro/internal/opthash"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// Per-layer metrics, named <module>.<metric>. Every traced run prints
// all of them; a layer a workload does not exercise reads 0 (see
// README.md for which workload moves which).
var layerUnits = map[string]string{
	"cluster.router_hop_ms": "ms", "cluster.ack_wait_ms": "ms", "cluster.repins": "count", "cluster.failovers": "count",
	"serve.handler_ms": "ms", "serve.transport_ms": "ms", "serve.hit_ratio": "ratio",
	"serve.cache_hits": "count", "serve.cell_hits": "count", "serve.coalesced_hits": "count",
	"serve.cache_misses": "count", "serve.dedup_collapses": "count", "serve.rejected": "count",
	"serve.gc_pause_p99_ms": "ms", "serve.heap_mib": "MiB",
	"opthash.combine_us":     "us",
	"dataset.acquire_mem_us": "us", "dataset.acquire_disk_ms": "ms", "dataset.acquire_miss_ms": "ms",
	"dataset.mem_hit_ratio": "ratio", "dataset.disk_hits": "count", "dataset.misses": "count", "dataset.evictions": "count",
	"hurricane.field_ms":           "ms",
	"metrics.quantized_entropy_ms": "ms", "metrics.variogram_ms": "ms", "metrics.khan_surrogate_ms": "ms",
	"metrics.jin_model_ms": "ms", "metrics.stat_ms": "ms", "metrics.spatial_ms": "ms",
	"metrics.entropy_ms": "ms", "metrics.distortion_ms": "ms",
	"predictors.predict_us": "us", "predictors.restore_ms": "ms", "predictors.fit_ms": "ms", "predictors.marshal_ms": "ms",
	"compressor.sz3.compress_ms": "ms", "compressor.sz3.decompress_ms": "ms",
	"compressor.zfp.compress_ms": "ms", "compressor.zfp.decompress_ms": "ms",
	"compressor.sz3.mb_per_s": "MB/s", "compressor.zfp.mb_per_s": "MB/s",
	"store.put_fsync_ms": "ms", "store.wal_bytes": "bytes",
	"queue.tasks": "count", "queue.retried": "count", "queue.failed": "count", "queue.locality_hits": "count",
	"queue.worker_busy_share": "ratio",
	"bench.observe_cell_ms":   "ms", "bench.evaluate_khan2023_ms": "ms", "bench.evaluate_jin2022_ms": "ms",
	"bench.evaluate_rahman2023_ms": "ms",
	"trace.unattributed_share":     "ratio", "trace.overhead_share": "ratio",
	"gen.late_p99_ms": "ms",
}

// featureMetrics are the metrics the serving scheme and the three
// Table-2 schemes run.
var featureMetrics = []string{
	"quantized_entropy", "variogram", "khan_surrogate", "jin_model", "stat", "spatial", "entropy", "distortion",
}

// setLayer records a per-layer metric, refusing a name not in
// layerUnits so the report and BENCHMARK.json cannot drift apart.
func (r *report) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	r.set(name, unit, v)
}

// zeroLayers starts a traced report with every layer at 0 (not
// exercised); the traced run overwrites what it measures.
func zeroLayers(r *report) {
	for name := range layerUnits {
		r.setLayer(name, 0)
	}
}

// libraryCells is how many cells the kernel replay times per run.
const libraryCells = 6

// kernelLayers replays cells of spec through hurricane.Field, every
// feature metric, both compressors (checking the error bound on
// decompress) and an fsynced Store.Put, each timed in its own span.
func kernelLayers(tr *tracer, spec *bench.Spec, dir string, rep *report) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	st.Sync = true
	var field, put []float64
	metricMS := map[string][]float64{}
	compMS := map[string][]float64{}
	var bytes float64
	for i := 0; i < libraryCells; i++ {
		f := spec.Fields[i%len(spec.Fields)]
		step := (i / len(spec.Fields)) % spec.Steps
		bound := spec.Bounds[i%len(spec.Bounds)]
		var data *pressio.Data
		err := tr.do("hurricane.field", -1, i, func(int) error {
			start := time.Now()
			var err error
			data, err = hurricane.Field(f, step, spec.Dims)
			field = append(field, msSinceWall(start))
			return err
		})
		if err != nil {
			return err
		}
		bytes = float64(data.ByteSize())
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, bound)
		opts.Set(predictors.OptTaoCompressor, "sz3")
		opts.Set(predictors.OptKhanCompressor, "sz3")
		for _, name := range featureMetrics {
			m, err := pressio.GetMetric(name)
			if err != nil {
				return err
			}
			if err := m.SetOptions(opts); err != nil {
				return fmt.Errorf("metric %s: %w", name, err)
			}
			data.Touch() // no metric reuses another's summary pass
			tr.do("metrics."+name, -1, i, func(int) error {
				start := time.Now()
				m.BeginCompress(data)
				metricMS[name] = append(metricMS[name], msSinceWall(start))
				return nil
			})
		}
		for _, c := range []string{"sz3", "zfp"} {
			cms, dms, err := roundTrip(tr, i, c, data, bound)
			if err != nil {
				return err
			}
			compMS[c+".compress"] = append(compMS[c+".compress"], cms)
			compMS[c+".decompress"] = append(compMS[c+".decompress"], dms)
		}
		raw := make([]byte, 2048) // a checkpointed observation's size
		err = tr.do("store.put", -1, i, func(int) error {
			start := time.Now()
			err := st.Put("perfbench/cell/"+strconv.Itoa(i), raw)
			put = append(put, msSinceWall(start))
			return err
		})
		if err != nil {
			return err
		}
	}
	walBytes := 0.0
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		walBytes = float64(fi.Size())
	}
	rep.setLayer("hurricane.field_ms", median(field))
	for _, name := range featureMetrics {
		rep.setLayer("metrics."+name+"_ms", median(metricMS[name]))
	}
	for _, c := range []string{"sz3", "zfp"} {
		cms := median(compMS[c+".compress"])
		rep.setLayer("compressor."+c+".compress_ms", cms)
		rep.setLayer("compressor."+c+".decompress_ms", median(compMS[c+".decompress"]))
		rep.setLayer("compressor."+c+".mb_per_s", bytes/1e6/(cms/1e3))
	}
	rep.setLayer("store.put_fsync_ms", median(put))
	rep.setLayer("store.wal_bytes", walBytes)
	return nil
}

// roundTrip compresses and decompresses data under an absolute bound,
// timing both, and fails if any decompressed value leaves the bound.
func roundTrip(tr *tracer, op int, name string, data *pressio.Data, bound float64) (cms, dms float64, err error) {
	comp, err := pressio.GetCompressor(name)
	if err != nil {
		return 0, 0, err
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, bound)
	if err := comp.SetOptions(opts); err != nil {
		return 0, 0, err
	}
	var packed *pressio.Data
	err = tr.do("compressor."+name+".compress", -1, op, func(int) error {
		start := time.Now()
		var err error
		packed, err = comp.Compress(data)
		cms = msSinceWall(start)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	out := pressio.New(data.DType(), data.Dims()...)
	err = tr.do("compressor."+name+".decompress", -1, op, func(int) error {
		start := time.Now()
		err := comp.Decompress(packed, out)
		dms = msSinceWall(start)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if worst := maxAbsErr(data, out); worst > bound {
		return 0, 0, fmt.Errorf("%s decompressed a value %g from its original, past the bound %g", name, worst, bound)
	}
	return cms, dms, nil
}

func maxAbsErr(a, b *pressio.Data) float64 {
	worst := 0.0
	for i := 0; i < a.Len(); i++ {
		worst = math.Max(worst, math.Abs(a.At(i)-b.At(i)))
	}
	return worst
}

// pipelineLayers runs spec through bench.CollectDetailed (queue counts,
// per-cell time, worker busy share) and times bench.Evaluate with one
// scheme at a time.
func pipelineLayers(ctx context.Context, spec *bench.Spec, rep *report) error {
	start := time.Now()
	res, err := bench.CollectDetailed(ctx, spec)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	cells := cellLatencies(res.Observations)
	busy := 0.0
	for _, ms := range cells {
		busy += ms / 1e3
	}
	qs := res.QueueStats
	rep.setLayer("queue.tasks", float64(qs.Tasks))
	rep.setLayer("queue.retried", float64(qs.Retried))
	rep.setLayer("queue.failed", float64(qs.Failed))
	rep.setLayer("queue.locality_hits", float64(qs.LocalityHits))
	rep.setLayer("queue.worker_busy_share", busy/(float64(spec.Workers)*wall.Seconds()))
	rep.setLayer("bench.observe_cell_ms", median(cells))
	for _, sch := range spec.Schemes {
		one := *spec
		one.Schemes = []string{sch}
		ev, err := evaluateTimes(&one, res.Observations, evaluateReps*table2Reps)
		if err != nil {
			return err
		}
		rep.setLayer("bench.evaluate_"+sch+"_ms", median(ev)*1e3)
	}
	return nil
}

// combineUS times opthash.Combine on options shaped like a data-backed
// predict's cache key (the request part plus its compressor options).
func combineUS() float64 {
	req := pressio.Options{}
	req.Set("req:scheme", scheme)
	req.Set("req:compressor", compressor)
	req.Set("req:field", "P")
	req.Set("req:step", int64(3))
	req.Set("req:dims", "16x16x16")
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, hotBound)
	const n = 2000
	var ts []float64
	runtime.GC()
	for r := 0; r < 9; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			sink = opthash.Combine(req, opts)
		}
		ts = append(ts, float64(time.Since(start))/float64(time.Microsecond)/n)
	}
	return median(ts)
}

var sink string

func msSinceWall(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
