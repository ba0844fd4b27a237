package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cands := []float64{99.9, 99, 95, 90}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {99, 0}} {
		if got := tailPercentile(c.n, 10, cands); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i)
	}
	if _, err := tailLatency(lat, 90); err != nil {
		t.Errorf("100 samples support p90: %v", err)
	}
	if _, err := tailLatency(lat[:99], 90); err == nil {
		t.Error("99 samples leave fewer than 10 beyond p90, want an error")
	}
}

// A stall that holds the only connection must be charged to every op
// due while it lasts, not only to the stalled op.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	var conn sync.Mutex
	res := openLoop(context.Background(), due, func(_ context.Context, i int) (int, error) {
		conn.Lock()
		defer conn.Unlock()
		if i == 0 {
			time.Sleep(200 * time.Millisecond) // the injected stall
		}
		return 1, nil
	})
	if res.Attempted != 10 || res.Failed != 0 || len(res.LatMS) != 10 {
		t.Fatalf("attempted %d failed %d samples %d", res.Attempted, res.Failed, len(res.LatMS))
	}
	// op k completes at ~200ms and was due at 10k ms: latency ~200-10k,
	// so the median is ~155ms; a send-time clock would read ~0 for 9 ops
	if p50 := median(res.LatMS); p50 < 100 {
		t.Errorf("p50 %.1f ms: the stall was not charged to the ops it delayed", p50)
	}
	if late := quantile(res.LateMS, 1); late > 50 {
		t.Errorf("generator ran %.1f ms late; it must dispatch on schedule while ops wait", late)
	}
}

func TestClosedLoopCountsOps(t *testing.T) {
	res := closedLoop(context.Background(), 2, 50*time.Millisecond, func(context.Context, int) (int, error) {
		time.Sleep(time.Millisecond)
		return 3, nil
	})
	if res.Attempted < 10 || res.Preds != 3*res.Attempted || res.rate() <= 0 {
		t.Errorf("attempted %d preds %d rate %g", res.Attempted, res.Preds, res.rate())
	}
}

func TestScheduleIsSeededAtAFixedRate(t *testing.T) {
	a := jitteredSchedule(7, 100, 5*time.Second)
	b := jitteredSchedule(7, 100, 5*time.Second)
	c := jitteredSchedule(8, 100, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 500 || len(c) != 500 {
		t.Errorf("%d and %d ops in 5s at 100/s, want 500", len(a), len(c))
	}
	for i, at := range a {
		slot := time.Duration(i) * 10 * time.Millisecond
		if at < slot || at >= slot+5*time.Millisecond {
			t.Fatalf("op %d due at %v, outside the first half of its slot", i, at)
		}
	}
}

func TestWorkloadOpsAreSeeded(t *testing.T) {
	w1, _ := newWorkload("predict-hot", 3)
	w2, _ := newWorkload("predict-hot", 3)
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(w1.opFor(phaseLatency, i), w2.opFor(phaseLatency, i)) {
			t.Fatalf("op %d differs between two workloads on one seed", i)
		}
	}
	// cold ops pick seeded cells but never repeat a bound
	c, _ := newWorkload("predict-cold", 3)
	seen := map[float64]bool{}
	for i := 0; i < 500; i++ {
		b := c.opFor(phaseLatency, i).body.(serve.PredictRequest).Options["pressio:abs"].(float64)
		if seen[b] {
			t.Fatalf("cold op %d reuses bound %g", i, b)
		}
		seen[b] = true
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 35 * ms, End: 45 * ms},
	}
	self := selfMS(spans)
	// children cover [10,60] and [90,100]: 60ms of the parent's 100
	if got := self["parent"][0]; math.Abs(got-40) > 1e-9 {
		t.Errorf("parent self %.3f ms, want 40", got)
	}
	if got := self["b"][0]; math.Abs(got-20) > 1e-9 {
		t.Errorf("b self %.3f ms, want 20", got)
	}
	if got := self["c"][0]; math.Abs(got-30) > 1e-9 {
		t.Errorf("leaf self %.3f ms, want its duration 30", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.do("outer", -1, 7, func(id int) error {
		return tr.do("inner", id, 7, func(int) error { time.Sleep(2 * time.Millisecond); return nil })
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if self := selfMS(spans)["outer"][0]; self > 1 {
		t.Errorf("outer self time %.3f ms includes its child", self)
	}
}

func TestStatzDeltaBetweenScrapes(t *testing.T) {
	before := map[string]serve.Statz{
		"n1": {CellHits: 10, CacheMisses: 2, DataCache: dataset.TieredStats{DiskHits: 1}},
	}
	after := map[string]serve.Statz{
		"n1": {CellHits: 110, CacheMisses: 2, Rejected: 1, DataCache: dataset.TieredStats{DiskHits: 4},
			Process: serve.ProcessStats{HeapAllocBytes: 2 << 20, GCPauseP99MS: 2}},
		"n2": {CacheHits: 5, Process: serve.ProcessStats{HeapAllocBytes: 1 << 20, GCPauseP99MS: 3}}, // new node
	}
	d := delta(before, after)
	if d.CellHits != 100 || d.CacheHits != 5 || d.CacheMisses != 0 || d.Rejected != 1 || d.DiskHits != 3 {
		t.Errorf("counters %+v", d)
	}
	if d.HeapMiB != 2 || d.GCPauseP99MS != 3 {
		t.Errorf("gauges: heap %g MiB, gc p99 %g ms; want the highest node reading", d.HeapMiB, d.GCPauseP99MS)
	}
	if r := d.hitRatio(); r != 1 {
		t.Errorf("hit ratio %g with no misses in the window", r)
	}
}

func TestFailShareIsNeverZero(t *testing.T) {
	if s := failShare(0, 1000); s <= 0 || s > 1e-3 {
		t.Errorf("no failures in 1000: share %g", s)
	}
	if failShare(1, 1000) <= failShare(0, 1000) {
		t.Error("a failure must raise the share")
	}
}

// A phase measured in slices takes its windows slice by slice (no window
// straddles two slices) and pools samples for a whole-phase figure.
func TestSlicesPoolWindows(t *testing.T) {
	slice := func(ms float64) *phaseResult {
		r := &phaseResult{Wall: 2 * time.Second}
		for i := 0; i < 400; i++ {
			r.record(time.Duration(i)*5*time.Millisecond, ms, 1, nil)
		}
		return r
	}
	s := slices{slice(1), slice(2), slice(3)}
	if rate := s.pooled().rate(); rate != 200 {
		t.Errorf("pooled rate %g/s, want 1200 ops over 6 s", rate)
	}
	if p50, err := s.windowQuantile(time.Second, 0.5); err != nil || p50 != 2 {
		t.Errorf("windowed p50 %g (%v), want the median of the six window medians, 2", p50, err)
	}
	if p90, err := s.windowQuantile(0, 0.9); err != nil || p90 != 3 {
		t.Errorf("whole-phase p90 %g (%v), want 3 over the pooled samples", p90, err)
	}
	if got := s.pooled().Attempted; got != 1200 {
		t.Errorf("pooled %d ops, want 1200", got)
	}
}

// A faster machine completes more capacity-phase ops; a clean run's
// fail_share must not move with it.
func TestFailShareIgnoresCapacityOps(t *testing.T) {
	run := func(capacityOps int) *servingRun {
		return &servingRun{
			capacity: &phaseResult{Attempted: capacityOps},
			latency:  &phaseResult{Attempted: 2400},
			probes:   &phaseResult{Attempted: fitProbes},
		}
	}
	if slow, fast := run(10000).failShare(), run(20000).failShare(); slow != fast {
		t.Errorf("fail_share %g at 10000 capacity ops, %g at 20000", slow, fast)
	}
}

// The negative control: a reference that differs from the run in any
// recorded output must fail the check.
func TestWrongReferenceFailsTheCheck(t *testing.T) {
	obs := []*bench.Observation{
		{Field: "P", Step: 0, Bound: 1e-4, Compressor: "sz3", CR: 7.25},
		{Field: "CLOUD", Step: 1, Bound: 1e-2, Compressor: "zfp", CR: 31.5},
	}
	rows := []bench.MethodRow{{Scheme: "khan2023", Compressor: "sz3", MedAPE: 12.5, HasMedAPE: true}}
	ref := recordReference(obs, rows)
	if bad := checkReference(ref, obs, rows); len(bad) != 0 {
		t.Fatalf("a run fails its own reference: %v", bad)
	}

	wrongCR := recordReference(obs, rows)
	wrongCR.CR[cellName(obs[0])] = math.Nextafter(7.25, 8) // one ulp off
	wrongMedAPE := recordReference(obs, rows)
	wrongMedAPE.MedAPE["khan2023/sz3"] = 12.6
	missing := recordReference(obs[:1], rows)
	extra := recordReference(append(obs, &bench.Observation{Field: "TC", Compressor: "sz3", Bound: 1e-4, CR: 3}), rows)
	for name, ref := range map[string]*reference{
		"cr": wrongCR, "medape": wrongMedAPE, "missing cell": missing, "unobserved cell": extra,
	} {
		if bad := checkReference(ref, obs, rows); len(bad) == 0 {
			t.Errorf("wrong reference (%s) passed the check", name)
		}
	}
}

// The embedded reference must be the recorded Table-2 run, not empty.
func TestEmbeddedReferenceCoversTheWorkload(t *testing.T) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	spec := table2Spec(&runEnv{nproc: 2}, "")
	cells := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if len(ref.CR) != cells || len(ref.MedAPE) == 0 {
		t.Errorf("reference has %d cells (want %d) and %d MedAPE rows", len(ref.CR), cells, len(ref.MedAPE))
	}
}

func TestWindowRates(t *testing.T) {
	r := &phaseResult{Wall: time.Second}
	for i := 0; i < 10; i++ {
		r.record(time.Duration(i)*100*time.Millisecond+time.Millisecond, 1, 2, nil)
	}
	ops, preds := r.windowRates(500 * time.Millisecond)
	if !reflect.DeepEqual(ops, []float64{10, 10}) || !reflect.DeepEqual(preds, []float64{20, 20}) {
		t.Errorf("ops %v preds %v", ops, preds)
	}
}

// Fits step through the replication poll period: any fitPhases fits in a
// row are sent at every phase once, whatever the seed, each no earlier
// than asked and less than a period later.
func TestFitsStepThroughThePollPhase(t *testing.T) {
	poll := 10 * time.Millisecond
	for _, seed := range []int64{0, 7} {
		seen := map[time.Duration]bool{}
		for k := 0; k < fitPhases; k++ {
			at := time.Duration(k) * 137 * time.Millisecond
			d := pollPhase(poll, at, k, seed)
			if d < at || d >= at+poll {
				t.Fatalf("fit %d asked for at %v is sent at %v", k, at, d)
			}
			seen[d%poll] = true
		}
		if len(seen) != fitPhases {
			t.Errorf("seed %d: %d distinct phases in %d fits", seed, len(seen), fitPhases)
		}
	}
	if got := pollPhase(poll, 23*time.Millisecond, 0, 0); got != 30*time.Millisecond {
		t.Errorf("phase 0 at or after 23ms is %v, want 30ms", got)
	}
}

// The negative control end to end: table2-offline against a reference
// one ulp off in a single cell must be reported incorrect on every
// repeat of the pipeline, and on nothing else.
func TestTable2RunFailsOnAWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table-2 pipeline")
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for cell, cr := range ref.CR {
		ref.CR[cell] = math.Nextafter(cr, math.Inf(1))
		break
	}
	wrong, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	saved := referenceJSON
	referenceJSON = wrong
	defer func() { referenceJSON = saved }()

	env := &runEnv{build: t.TempDir(), nproc: 2, seed: 1, seconds: 1, workload: "table2-offline"}
	rep, err := run(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.incorrect) != table2Reps {
		t.Errorf("want one difference per repeat (%d), got %d: %v", table2Reps, len(rep.incorrect), rep.incorrect)
	}
}
