package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// jitteredSchedule is an open-loop arrival schedule at a fixed rate: one
// due offset in each 1/rate slot of span, at a seeded position within
// the first half of the slot. Every seed offers the same number of ops,
// and no burst offers more than two per slot: Poisson arrivals would
// add seed-to-seed queueing on a 2-core machine that says nothing about
// the program.
func jitteredSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for slot := time.Duration(0); slot+gap <= span; slot += gap {
		out = append(out, slot+time.Duration(rng.Int63n(int64(gap/2))))
	}
	return out
}

// fitPhases is how many evenly spaced phases of the replication poll
// period the fits of a run are sent at, in turn.
const fitPhases = 20

// pollPhase is the first offset at or after at whose phase within the
// replication poll period is fit k's: the seeded start phase plus k
// twentieths of the period. A fit's ack waits for the follower's next
// poll, up to a whole period; stepping the phase makes every run's fits
// wait the same spread of waits, so the ack median does not depend on
// which phases a run happened to hit.
func pollPhase(poll, at time.Duration, k int, seed int64) time.Duration {
	step := poll / fitPhases
	want := (time.Duration(uint64(seed)%fitPhases)*step + time.Duration(k%fitPhases)*step) % poll
	d := at - at%poll + want
	if d < at {
		d += poll
	}
	return d
}

// opFunc issues op i and reports how many predictions it carried. A
// non-nil error is a failed op (transport error, non-2xx, or a response
// that fails its output check).
type opFunc func(ctx context.Context, i int) (preds int, err error)

// phaseResult is what one load phase measured.
type phaseResult struct {
	Attempted, Failed int
	Preds             int             // predictions carried by successful ops
	LatMS             []float64       // successful predict ops: due (open) or send (closed) to done
	LatAt             []time.Duration // completion offset of each LatMS sample
	LateMS            []float64       // open loop: generator lateness per op
	Wall              time.Duration
	Errs              []error         // first few failures, for the report
	DoneAt            []time.Duration // successful ops: completion offset from phase start
	DonePreds         []int           // predictions each of those ops carried
}

func (r *phaseResult) record(at time.Duration, lat float64, preds int, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errs) < 5 {
			r.Errs = append(r.Errs, err)
		}
		return
	}
	r.Preds += preds
	r.DoneAt = append(r.DoneAt, at)
	r.DonePreds = append(r.DonePreds, preds)
	if preds > 0 {
		r.LatMS = append(r.LatMS, lat)
		r.LatAt = append(r.LatAt, at)
	}
}

// maxInFlight caps open-loop ops outstanding at once. The HTTP client
// already limits connections to nproc; this only bounds goroutines if
// the system stalls, and a stall long enough to hit it shows up as
// generator lateness.
const maxInFlight = 4096

// openLoop fires op i at due[i] after the phase starts, whether or not
// earlier ops have returned, and times each op from its due time, so a
// stall is charged to every op it delays (the send-time clock would
// charge it to the stalled op alone). Lateness (dispatch - due) is the
// generator's own delay.
func openLoop(ctx context.Context, due []time.Duration, op opFunc) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInFlight)
	start := time.Now()
	for i, d := range due {
		if ctx.Err() != nil {
			break
		}
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		late := msSince(dueAt)
		wg.Add(1)
		go func(i int, dueAt time.Time, late float64) {
			defer wg.Done()
			defer func() { <-sem }()
			preds, err := op(ctx, i)
			lat := msSince(dueAt)
			mu.Lock()
			res.LateMS = append(res.LateMS, late)
			res.record(time.Since(start), lat, preds, err)
			mu.Unlock()
		}(i, dueAt, late)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// closedLoop runs conns clients, each sending its next op as soon as the
// previous one returns, until span has passed. Ops are numbered in issue
// order across clients.
func closedLoop(ctx context.Context, conns int, span time.Duration, op opFunc) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	start := time.Now()
	end := start.Add(span)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				sent := time.Now()
				preds, err := op(ctx, i)
				lat := msSince(sent)
				mu.Lock()
				res.record(time.Since(start), lat, preds, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// windowRates splits the phase into windows of width w and returns the
// successful ops/s and predictions/s of each whole window; w = 0 is one
// window over the whole phase. The median over windows discards windows
// a co-tenant's burst slowed, which a whole-phase mean would average in.
func (r *phaseResult) windowRates(w time.Duration) (ops, preds []float64) {
	if w <= 0 {
		return []float64{r.rate()}, []float64{r.predRate()}
	}
	n := int(r.Wall / w)
	if n == 0 {
		return nil, nil
	}
	ops, preds = make([]float64, n), make([]float64, n)
	for i, at := range r.DoneAt {
		k := int(at / w)
		if k < n {
			ops[k]++
			preds[k] += float64(r.DonePreds[i])
		}
	}
	for k := range ops {
		ops[k] /= w.Seconds()
		preds[k] /= w.Seconds()
	}
	return ops, preds
}

// windowQuantiles is the q-quantile latency of each window of width w
// that has at least 10 samples beyond q.
func (r *phaseResult) windowQuantiles(w time.Duration, q float64) []float64 {
	by := map[int][]float64{}
	for i, at := range r.LatAt {
		k := int(at / w)
		by[k] = append(by[k], r.LatMS[i])
	}
	var per []float64
	for _, xs := range by {
		if tailPercentile(len(xs), 10, []float64{q * 100}) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return per
}

// slices is one phase measured in slices spread over a run. The host's
// speed moves in spells of a few seconds, and a phase measured in one
// block reads whichever spell it fell in; slices spread over the run
// sample several.
type slices []*phaseResult

// pooled is the phase as one result: counts, samples and wall time
// summed over the slices. Its offsets are not meaningful.
func (s slices) pooled() *phaseResult {
	out := &phaseResult{}
	for _, r := range s {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Preds += r.Preds
		out.LatMS = append(out.LatMS, r.LatMS...)
		out.LateMS = append(out.LateMS, r.LateMS...)
		out.Errs = append(out.Errs, r.Errs...)
		out.Wall += r.Wall
	}
	return out
}

// windowQuantile is the median over the windows of width w of every
// slice of each window's q-quantile latency; windows with fewer than 10
// samples beyond q are skipped. w = 0 is one window over all samples.
// The median over windows keeps a burst of host contention in a few
// windows from setting the run's figure.
func (s slices) windowQuantile(w time.Duration, q float64) (float64, error) {
	all := s.pooled().LatMS
	if w <= 0 {
		if tailPercentile(len(all), 10, []float64{q * 100}) == 0 {
			return 0, fmt.Errorf("%d latency samples leave fewer than 10 beyond p%g", len(all), q*100)
		}
		return quantile(all, q), nil
	}
	var per []float64
	for _, r := range s {
		per = append(per, r.windowQuantiles(w, q)...)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("%d latency samples leave fewer than 10 beyond p%g in every %v window", len(all), q*100, w)
	}
	return median(per), nil
}

// rate returns successful ops per second of wall time.
func (r *phaseResult) rate() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Attempted-r.Failed) / r.Wall.Seconds()
}

func (r *phaseResult) predRate() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Preds) / r.Wall.Seconds()
}

func finiteAll(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
