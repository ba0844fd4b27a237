package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/store"
)

// table2Spec is the offline workload: the paper's three schemes over
// sparse (CLOUD, PRECIP) and dense (P, TC) fields at the reference grid,
// sz3 and zfp at two bounds. Folds equal the field count, so group
// k-fold leaves one field out per fold whatever the seed, and the
// report is comparable with the recorded reference.
func table2Spec(env *runEnv, storeDir string) *bench.Spec {
	return &bench.Spec{
		Fields:      []string{"CLOUD", "PRECIP", "P", "TC"},
		Steps:       8,
		Dims:        coldDims,
		Compressors: []string{"sz3", "zfp"},
		Bounds:      []float64{1e-4, 1e-2},
		Schemes:     []string{"khan2023", "jin2022", "rahman2023"},
		Folds:       4,
		Workers:     env.nproc,
		StoreDir:    storeDir,
		Seed:        1,
	}
}

// probeSpec is the small offline pipeline every serving run also times,
// so cells_per_s and evaluate_s read on every workload.
func probeSpec(env *runEnv, storeDir string) *bench.Spec {
	return &bench.Spec{
		Fields:      []string{"CLOUD", "P"},
		Steps:       4,
		Dims:        coldDims,
		Compressors: []string{"sz3", "zfp"},
		Bounds:      []float64{1e-4},
		Schemes:     []string{"khan2023", "jin2022", "rahman2023"},
		Folds:       2,
		Workers:     env.nproc,
		StoreDir:    storeDir,
		Seed:        1,
	}
}

//go:embed reference.json
var referenceJSON []byte

// reference is the recorded Table-2 output the offline workload must
// reproduce exactly: CR per cell and MedAPE per (scheme, compressor).
type reference struct {
	CR     map[string]float64 `json:"cr"`
	MedAPE map[string]float64 `json:"medape"`
}

func cellName(ob *bench.Observation) string {
	return fmt.Sprintf("%s/%s/t%02d/%g", ob.Compressor, ob.Field, ob.Step, ob.Bound)
}

// checkReference compares a Table-2 run with ref bit for bit and returns
// one line per difference.
func checkReference(ref *reference, obs []*bench.Observation, rows []bench.MethodRow) []string {
	var bad []string
	seen := 0
	for _, ob := range obs {
		want, ok := ref.CR[cellName(ob)]
		if !ok {
			bad = append(bad, fmt.Sprintf("cell %s has no reference", cellName(ob)))
			continue
		}
		seen++
		if ob.CR != want {
			bad = append(bad, fmt.Sprintf("cell %s: CR %v, reference %v", cellName(ob), ob.CR, want))
		}
	}
	if seen != len(ref.CR) {
		bad = append(bad, fmt.Sprintf("%d of %d reference cells observed", seen, len(ref.CR)))
	}
	for _, row := range rows {
		if !row.HasMedAPE {
			continue
		}
		k := row.Scheme + "/" + row.Compressor
		want, ok := ref.MedAPE[k]
		if !ok || row.MedAPE != want {
			bad = append(bad, fmt.Sprintf("MedAPE %s: %v, reference %v", k, row.MedAPE, want))
		}
	}
	return bad
}

// recordReference turns a run into a reference document.
func recordReference(obs []*bench.Observation, rows []bench.MethodRow) *reference {
	ref := &reference{CR: map[string]float64{}, MedAPE: map[string]float64{}}
	for _, ob := range obs {
		ref.CR[cellName(ob)] = ob.CR
	}
	for _, row := range rows {
		if row.HasMedAPE {
			ref.MedAPE[row.Scheme+"/"+row.Compressor] = row.MedAPE
		}
	}
	return ref
}

// offlineRun is one bench.CollectDetailed, timed, and its Evaluate.
type offlineRun struct {
	res     *bench.CollectResult
	report  *bench.Report
	collect time.Duration
}

func runTable2(ctx context.Context, spec *bench.Spec) (*offlineRun, error) {
	start := time.Now()
	res, err := bench.CollectDetailed(ctx, spec)
	if err != nil {
		return nil, err
	}
	collect := time.Since(start)
	report, err := bench.Evaluate(spec, res.Observations)
	if err != nil {
		return nil, err
	}
	return &offlineRun{res: res, report: report, collect: collect}, nil
}

// probeResult is what the offline probe of a serving run measured.
type probeResult struct {
	cellsPerS  float64
	evaluateS  float64
	compressMS map[string]float64 // median compress ms per compressor
}

// probeEvaluateReps is how often the probe re-runs Evaluate on the same
// observations; the median is the reported time. The probe's Evaluate
// takes a few milliseconds, so it repeats often.
const probeEvaluateReps = 41

// offlineProbe collects the offline probe of a serving run, one repeat
// every probeEvery rounds of the run. Its cell rate is over the repeats
// pooled, and its Evaluate time the median of every timed Evaluate.
type offlineProbe struct {
	cells   int
	collect time.Duration
	evals   []float64
	obs     []*bench.Observation
}

// rep runs the probe once on a fresh checkpoint store.
func (p *offlineProbe) rep(ctx context.Context, env *runEnv) error {
	dir := filepath.Join(env.work, "probe-store")
	os.RemoveAll(dir)
	spec := probeSpec(env, dir)
	run, err := runTable2(ctx, spec)
	if err != nil {
		return fmt.Errorf("offline probe: %w", err)
	}
	if len(run.res.Failed) > 0 {
		return fmt.Errorf("offline probe: %d cells failed", len(run.res.Failed))
	}
	ev, err := evaluateTimes(spec, run.res.Observations, probeEvaluateReps)
	if err != nil {
		return err
	}
	p.cells += len(run.res.Observations)
	p.collect += run.collect
	p.evals = append(p.evals, ev...)
	p.obs = append(p.obs, run.res.Observations...)
	return nil
}

func (p *offlineProbe) result() *probeResult {
	return &probeResult{
		cellsPerS: float64(p.cells) / p.collect.Seconds(), evaluateS: median(p.evals),
		compressMS: compressMedians(p.obs),
	}
}

// evaluateTimes times reps runs of bench.Evaluate, in seconds.
func evaluateTimes(spec *bench.Spec, obs []*bench.Observation, reps int) ([]float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := bench.Evaluate(spec, obs); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return ts, nil
}

func compressMedians(obs []*bench.Observation) map[string]float64 {
	by := map[string][]float64{}
	for _, ob := range obs {
		by[ob.Compressor] = append(by[ob.Compressor], ob.CompressMS)
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}

// runOffline is the table2-offline workload.
func runOffline(ctx context.Context, env *runEnv, rep *report) error {
	if env.trace {
		return traceOffline(ctx, env, rep)
	}
	// set-up: a fresh checkpoint store and one cell per compressor, which
	// pays the kernels' first-use costs (pools, page faults) before timing
	var setup []float64
	storeDir := filepath.Join(env.work, "table2-store")
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		os.RemoveAll(storeDir)
		warm := table2Spec(env, filepath.Join(env.work, "warm-store"))
		os.RemoveAll(warm.StoreDir)
		warm.Fields, warm.Steps, warm.Bounds, warm.Schemes = warm.Fields[:1], 1, warm.Bounds[:1], []string{"khan2023"}
		if _, err := bench.CollectDetailed(ctx, warm); err != nil {
			return fmt.Errorf("table2 set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}

	// The pipeline runs table2Reps times, each on a fresh store; the
	// cell rate is over the repeats pooled, peaks are medians over the
	// repeats, cell times are pooled. A
	// share of every short in-process timing follows each repeat, so each
	// reads the host over the whole run: the host's speed moves by some
	// 15% from one second to the next, and a timing taken in one burst
	// would carry whichever second it fell in.
	spec := table2Spec(env, storeDir)
	var runs []*offlineRun
	var cells int
	var collect time.Duration
	var rss, cellLat, evals, acks, capOps, capPreds []float64
	fitS := map[string][]float64{}
	var preds []fittedPredictor
	capacity := &phaseResult{}
	capSpan := time.Duration(env.seconds * float64(time.Second) / (5 * table2Reps))
	for i := 0; i < table2Reps; i++ {
		os.RemoveAll(storeDir)
		resetPeakRSS()
		run, err := runTable2(ctx, spec)
		if err != nil {
			return err
		}
		rss = append(rss, vmHWMMiB("self"))
		cells += len(run.res.Observations)
		collect += run.collect
		cellLat = append(cellLat, cellLatencies(run.res.Observations)...)
		runs = append(runs, run)

		obs := runs[0].res.Observations
		ev, err := evaluateTimes(spec, obs, evaluateReps)
		if err != nil {
			return err
		}
		evals = append(evals, ev...)
		ack, err := checkpointPutMS(filepath.Join(env.work, fmt.Sprintf("ack-store%d-a", i)), obs, ackPuts)
		if err != nil {
			return err
		}
		acks = append(acks, ack...)
		for k, ts := range fitTimes(spec, obs, fitReps) {
			fitS[k] = append(fitS[k], ts...)
		}
		if preds == nil {
			if preds, err = trainedPredictors(spec, obs); err != nil {
				return err
			}
		}
		ph := predictLoop(ctx, env, preds, capSpan)
		o, p := ph.windowRates(capacityWindow)
		capOps, capPreds = append(capOps, o...), append(capPreds, p...)
		capacity.Attempted += ph.Attempted
		capacity.Failed += ph.Failed
		capacity.Preds += ph.Preds
		capacity.Wall += ph.Wall
		capacity.Errs = append(capacity.Errs, ph.Errs...)
		ack, err = checkpointPutMS(filepath.Join(env.work, fmt.Sprintf("ack-store%d-b", i)), obs, ackPuts)
		if err != nil {
			return err
		}
		acks = append(acks, ack...)
	}
	run := runs[0]

	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if env.recordRef != "" {
		raw, err := json.MarshalIndent(recordReference(run.res.Observations, run.report.Rows), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(env.recordRef, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		ref = *recordReference(run.res.Observations, run.report.Rows)
	}
	for _, r := range runs {
		for _, why := range checkReference(&ref, r.res.Observations, r.report.Rows) {
			rep.wrong("%s", why)
		}
		for _, f := range r.res.Failed {
			rep.wrong("cell %s/%s/t%02d failed: %s", f.Compressor, f.Field, f.Step, f.Err)
		}
		rep.attempted += len(r.res.Observations) + len(r.res.Failed)
		rep.failed += len(r.res.Failed)
	}

	rep.set("setup_s", "s", median(setup))
	rep.set("cells_per_s", "cells/s", float64(cells)/collect.Seconds())
	rep.set("evaluate_s", "s", median(evals))
	rep.set("capacity_rps", "req/s", median(capOps))
	rep.set("capacity_preds_per_s", "pred/s", median(capPreds))
	rep.set("lat_p50_ms", "ms", median(cellLat))
	tail, err := tailLatency(cellLat, 90)
	if err != nil {
		rep.invalidf("%v", err)
	}
	rep.set("lat_tail_ms", "ms", tail)
	rep.set("fit_ack_p50_ms", "ms", median(acks))
	rep.set("fit_done_p50_s", "s", median(medians(fitS)))
	rep.set("rss_peak_mib", "MiB", median(rss))
	// over the Table-2 cells, whose number the spec fixes; a failed
	// in-process request already makes the run incorrect
	rep.set("fail_share", "ratio", failShare(rep.failed, rep.attempted))
	rep.attempted += capacity.Attempted
	rep.failed += capacity.Failed
	for _, e := range capacity.Errs {
		rep.wrong("%v", e)
	}

	qs := run.res.QueueStats
	rep.infof("table2: %d runs; the first: %d cells in %.2fs (%d workers), queue %d tasks, %d retried, %d failed, %d locality hits",
		len(runs), len(run.res.Observations), run.collect.Seconds(), spec.Workers, qs.Tasks, qs.Retried, qs.Failed, qs.LocalityHits)
	for _, row := range run.report.Rows {
		if row.HasMedAPE {
			rep.infof("table2: %s/%s MedAPE %.4f%%", row.Scheme, row.Compressor, row.MedAPE)
		}
	}
	figureOfMerit(rep, capacity.predRate(), env.nproc, &probeResult{compressMS: compressMedians(run.res.Observations)})
	return nil
}

// predictLoop is the in-process capacity phase: nproc clients, each
// request predicting every observed row of one fitted Table-2 scheme, so
// that a request costs about as much as a served batch.
func predictLoop(ctx context.Context, env *runEnv, preds []fittedPredictor, span time.Duration) *phaseResult {
	runtime.GC()
	return closedLoop(ctx, env.nproc, span, func(_ context.Context, i int) (int, error) {
		p := preds[i%len(preds)]
		for _, x := range p.x {
			v, err := p.pred.Predict(x)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("%s: non-finite prediction", p.name)
			}
			if err != nil {
				return 0, err
			}
		}
		return len(p.x), nil
	})
}

// fittedPredictor is one Table-2 scheme fitted on every observation.
type fittedPredictor struct {
	name, scheme, compressor string
	pred                     core.Predictor
	x                        [][]float64
}

// schemeRows extracts a scheme's feature matrix and targets for one
// compressor.
func schemeRows(sch core.Scheme, compressor string, obs []*bench.Observation) ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	for _, ob := range obs {
		if ob.Compressor != compressor {
			continue
		}
		row := make([]float64, 0, len(sch.Features()))
		for _, k := range sch.Features() {
			row = append(row, ob.Features[k])
		}
		x = append(x, row)
		y = append(y, ob.CR)
	}
	return x, y
}

func trainedPredictors(spec *bench.Spec, obs []*bench.Observation) ([]fittedPredictor, error) {
	var out []fittedPredictor
	for _, c := range spec.Compressors {
		for _, name := range spec.Schemes {
			sch, err := core.GetScheme(name)
			if err != nil {
				return nil, err
			}
			if !sch.Supports(c) {
				continue
			}
			p, err := sch.NewPredictor(c)
			if err != nil {
				return nil, err
			}
			x, y := schemeRows(sch, c, obs)
			if p.Trains() {
				if err := p.Fit(x, y); err != nil {
					return nil, fmt.Errorf("%s/%s fit: %w", name, c, err)
				}
			}
			out = append(out, fittedPredictor{name: name + "/" + c, scheme: name, compressor: c, pred: p, x: x})
		}
	}
	return out, nil
}

// fitTimes times reps full-data fits of every trained (scheme,
// compressor), in seconds, keyed scheme/compressor.
func fitTimes(spec *bench.Spec, obs []*bench.Observation, reps int) map[string][]float64 {
	out := map[string][]float64{}
	for _, c := range spec.Compressors {
		for _, name := range spec.Schemes {
			sch, err := core.GetScheme(name)
			if err != nil || !sch.Supports(c) {
				continue
			}
			x, y := schemeRows(sch, c, obs)
			runtime.GC()
			for r := 0; r < reps; r++ {
				p, err := sch.NewPredictor(c)
				if err != nil || !p.Trains() {
					break
				}
				start := time.Now()
				if err := p.Fit(x, y); err != nil {
					break
				}
				out[name+"/"+c] = append(out[name+"/"+c], time.Since(start).Seconds())
			}
		}
	}
	return out
}

// medians is the median of each sample, in key order.
func medians(by map[string][]float64) []float64 {
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, median(by[k]))
	}
	return out
}

// cellLatencies is each observed cell's work time: its metrics plus the
// compressor round trip.
func cellLatencies(obs []*bench.Observation) []float64 {
	out := make([]float64, 0, len(obs))
	for _, ob := range obs {
		t := ob.CompressMS + ob.DecompressMS
		for _, ms := range ob.MetricMS {
			t += ms
		}
		out = append(out, t)
	}
	return out
}

// checkpointPutMS times n checkpoints of the observations, in ms, as
// bench writes them: the gob-encoded observation put into a fresh store
// opened as bench opens its checkpoint store (no fsync). It is the ack a
// cell waits for before it counts as done. The first ackWarmPuts puts
// into the store are not timed: the first puts of a process or a store
// read a few microseconds slower than the rest.
func checkpointPutMS(dir string, obs []*bench.Observation, n int) ([]float64, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ms := make([]float64, 0, n)
	runtime.GC()
	for i := 0; i < ackWarmPuts+n; i++ {
		start := time.Now()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(obs[i%len(obs)]); err != nil {
			return nil, err
		}
		if err := st.Put(fmt.Sprintf("perfbench/ack/%d", i), buf.Bytes()); err != nil {
			return nil, err
		}
		if i >= ackWarmPuts {
			ms = append(ms, msSinceWall(start))
		}
	}
	return ms, nil
}

// Per repeat of the Table-2 pipeline: Evaluate runs, checkpoint puts
// (in each of two stores, one before the fits and one after the capacity
// slice) and fits of each trained scheme timed, and the in-process
// capacity window (the measured run's capacity phase is table2Reps slices
// of seconds/15).
const (
	evaluateReps   = 5
	ackPuts        = 350
	ackWarmPuts    = 100
	fitReps        = 8
	capacityWindow = 500 * time.Millisecond
)

// table2Reps is how many times the measured run repeats the pipeline.
const table2Reps = 3

// resetPeakRSS returns freed heap to the OS and restarts the process's
// peak resident set (VmHWM) from its current RSS, so each repeat of the
// pipeline reads its own peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // no procfs: the peak then spans the repeats
	}
	defer f.Close()
	_, _ = f.WriteString("5") // best effort, as above
}

// vmHWMMiB is a process's peak resident set (VmHWM) in MiB; pid is a
// number or "self". It is 0 where procfs is missing.
func vmHWMMiB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
