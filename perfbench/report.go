package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataset"
)

// genLateBoundMS is how late (p99) the open-loop generator may run before
// the run is invalid: past it the offered rate was not the fixed one.
const genLateBoundMS = 25

// prepareCorpus builds (once per checkout, like the binaries) or verifies
// the cold set on the reference grid. Nodes start with it on their spill
// tier, so cold predicts read it through the dataset cache.
func prepareCorpus(env *runEnv) error {
	env.corpusDir = filepath.Join(env.build, "corpus")
	m, _, err := dataset.BuildCorpus(env.corpusDir, coldFields, coldSteps, coldDims, 0)
	if err != nil {
		return fmt.Errorf("cold corpus: %w", err)
	}
	env.corpus = m
	return nil
}

// A measured serving run that turns out invalid is measured again on a
// fresh deployment, at most measureAttempts times in all, and only while
// the run is younger than retryBefore, so it still ends well inside the
// time a run may take. The last attempt's figures are the run's.
const (
	measureAttempts = 3
	retryBefore     = 60 * time.Second
)

func runServing(ctx context.Context, env *runEnv, rep *report) error {
	start := time.Now()
	w, err := newWorkload(env.workload, env.seed)
	if err != nil {
		return err
	}
	spin, err := startIdleSpinner(env.nproc)
	if err != nil {
		return fmt.Errorf("idle spinner: %w", err)
	}
	defer spin.stop()
	if w.spec.cold {
		if err := prepareCorpus(env); err != nil {
			return err
		}
	}
	if env.trace {
		return traceServing(ctx, env, w, rep)
	}
	var run *servingRun
	for attempt := 1; ; attempt++ {
		if run, err = measureServing(ctx, env, w, env.seconds, spin); err != nil {
			return err
		}
		// a failed op is an output error whichever attempt it fell in
		for _, ph := range run.phases() {
			for _, e := range ph.Errs {
				rep.wrong("%v", e)
			}
		}
		why := run.invalidity(w)
		if len(why) == 0 {
			break
		}
		if attempt == measureAttempts || time.Since(start) > retryBefore {
			for _, r := range why {
				rep.invalidf("%s", r)
			}
			break
		}
		rep.infof("attempt %d invalid (%s): measuring again on a fresh deployment", attempt, strings.Join(why, "; "))
	}
	probe := run.probe

	rep.set("setup_s", "s", median(run.setupS))
	rep.set("capacity_rps", "req/s", run.capacity.rate())
	rep.set("capacity_preds_per_s", "pred/s", run.capacity.predRate())
	lat := run.latency.LatMS
	p50, err := run.latSlices.windowQuantile(0, 0.5)
	if err != nil {
		return err
	}
	rep.set("lat_p50_ms", "ms", p50)
	tail, _ := run.latSlices.windowQuantile(run.tailWindow, w.spec.tailPct/100) // an error makes the run invalid
	rep.set("lat_tail_ms", "ms", tail)
	acks, dones := fitAckMS(run.fits), fitDoneS(run.fits)
	rep.set("fit_ack_p50_ms", "ms", median(acks))
	rep.set("fit_done_p50_s", "s", median(dones))
	rep.set("cells_per_s", "cells/s", probe.cellsPerS)
	rep.set("evaluate_s", "s", probe.evaluateS)
	rep.set("rss_peak_mib", "MiB", run.rssMiB)
	rep.attempted, rep.failed = run.attempted(), run.failed()
	rep.set("fail_share", "ratio", run.failShare())

	late := quantile(run.latency.LateMS, 0.99)
	rep.infof("gen.late_p99_ms %.3f (bound %d), %d open-loop predicts at %g/s; lat_tail_ms is p%g, the median over %v windows (0: whole phase); %d samples",
		late, genLateBoundMS, run.latency.Attempted, w.spec.openRate, w.spec.tailPct, run.tailWindow, len(lat))
	rep.infof("capacity phase: %d ops, %d predictions in %.2fs with %d connections",
		run.capacity.Attempted, run.capacity.Preds, run.capacity.Wall.Seconds(), env.nproc)
	rep.infof("serve: hit_ratio %.4f (cache %d, cell %d, coalesced %d, misses %d), data tier mem %d disk %d miss %d evictions %d, rejected %d",
		run.stats.hitRatio(), run.stats.CacheHits, run.stats.CellHits, run.stats.CoalescedHits, run.stats.CacheMisses,
		run.stats.MemHits, run.stats.DiskHits, run.stats.DataMisses, run.stats.Evictions, run.stats.Rejected)
	hi := tailPercentile(len(lat), 10, []float64{99.9, 99.5, 99, 98, 95, 90})
	rep.infof("whole-phase latency: p50 %.3f p75 %.3f p90 %.3f p95 %.3f ms; highest supported tail p%g = %.3f ms (not gated)",
		quantile(lat, .5), quantile(lat, .75), quantile(lat, .9), quantile(lat, .95), hi, quantile(lat, hi/100))
	rep.infof("fits: %d timed; ack p25 %.3f p50 %.3f p75 %.3f p90 %.3f ms, done p25 %.4f p50 %.4f p75 %.4f s; setup runs %v s",
		len(run.fits), quantile(acks, .25), quantile(acks, .5), quantile(acks, .75), quantile(acks, .9),
		quantile(dones, .25), quantile(dones, .5), quantile(dones, .75), run.setupS)
	figureOfMerit(rep, run.capacity.predRate(), env.nproc, probe)
	return nil
}

// invalidity lists why a measured run measured something other than the
// workload: a failover, load shedding, a generator that fell behind its
// schedule, or too few samples for the tail. Such a run is not reported
// as a slower one.
func (run *servingRun) invalidity(w *workload) []string {
	var why []string
	if late := quantile(run.latency.LateMS, 0.99); late > genLateBoundMS {
		why = append(why, fmt.Sprintf("generator ran late: p99 %.1f ms > %d ms", late, genLateBoundMS))
	}
	if run.router.Repins > 0 || run.router.Failovers > 0 {
		why = append(why, fmt.Sprintf("router repinned %d / failed over %d times", run.router.Repins, run.router.Failovers))
	}
	if run.stats.Rejected > 0 {
		why = append(why, fmt.Sprintf("%d requests refused (429) below capacity", run.stats.Rejected))
	}
	if _, err := run.latSlices.windowQuantile(run.tailWindow, w.spec.tailPct/100); err != nil {
		why = append(why, err.Error())
	}
	return why
}

// figureOfMerit prints the paper's comparison: predictions/s/core
// against compressions/s/core at the reference grid. It is derived
// information, not a gated metric: a faster compressor would read as a
// regression of the ratio.
func figureOfMerit(rep *report, predsPerS float64, cores int, probe *probeResult) {
	for _, c := range []string{"sz3", "zfp"} {
		ms := probe.compressMS[c]
		if ms <= 0 {
			continue
		}
		perCore := 1e3 / ms
		rep.infof("figure of merit: %.1f predictions/s/core vs %.1f %s compressions/s/core (32x64x64): %.0fx",
			predsPerS/float64(cores), perCore, c, predsPerS/float64(cores)/perCore)
	}
}
