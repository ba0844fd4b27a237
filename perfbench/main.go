// Command perfbench is the repository's performance benchmark. It builds
// nothing itself (run.sh builds it and a release predictd), deploys the
// workload — a 2-node predictd cluster behind a router on loopback, or
// the offline Table-2 pipeline in-process — drives it from the seed, and
// prints one JSON result line. See README.md for the workloads, the
// metrics and how to read them.
//
//	perfbench -build .bench_build -predictd .bench_build/predictd \
//	    --workload predict-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/dataset"
)

// runEnv is what every workload needs from the command line and host.
type runEnv struct {
	build, predictd string
	work            string // this run's scratch directory
	nproc           int
	corpusDir       string
	corpus          *dataset.Manifest
	seed            int64
	seconds         float64
	trace           bool
	workload        string
	recordRef       string // table2-offline: write the run's outputs as the reference here
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's output: metrics, derived info lines, and
// reasons the run is invalid or incorrect.
type report struct {
	metrics   map[string]metric
	info      []string
	invalid   []string
	incorrect []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) wrong(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

func (r *report) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

var workloads = []string{"predict-hot", "predict-cold", "table2-offline"}

func main() {
	env := &runEnv{nproc: runtime.NumCPU()}
	flag.StringVar(&env.build, "build", ".bench_build", "build and scratch directory")
	flag.StringVar(&env.predictd, "predictd", ".bench_build/predictd", "release-built predictd binary")
	flag.StringVar(&env.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&env.seed, "seed", 1, "workload seed")
	flag.Float64Var(&env.seconds, "seconds", 10, "measured seconds")
	flag.StringVar(&env.recordRef, "record-reference", "", "table2-offline: record this run's outputs as the reference file")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	spin := flag.Int("spin-idle", 0, "run as the idle spinner with this many threads (the benchmark starts it itself)")
	flag.Parse()
	if *spin > 0 {
		spinIdle(*spin)
	}
	env.trace = *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	rep, err := runAndStop(ctx, env)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.info {
		fmt.Println(line)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, why := range rep.incorrect {
		fmt.Println("INCORRECT:", why)
	}
	if len(rep.invalid) > 0 {
		// an invalid run measured something else than the workload (a
		// failover, load shedding, a late generator): it is not reported
		// as a slower run
		for _, why := range rep.invalid {
			fmt.Println("INVALID:", why)
		}
		os.Exit(2)
	}
	out, err := json.Marshal(result{
		Correct: len(rep.incorrect) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(rep.incorrect) > 0 {
		os.Exit(3)
	}
}

// runAndStop is run that stops every daemon the run started, also when
// the run panics.
func runAndStop(ctx context.Context, env *runEnv) (*report, error) {
	defer closeAll()
	return run(ctx, env)
}

func run(ctx context.Context, env *runEnv) (*report, error) {
	if env.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	known := false
	for _, w := range workloads {
		known = known || w == env.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown --workload %q (have %s)", env.workload, strings.Join(workloads, ", "))
	}
	env.work = filepath.Join(env.build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(env.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.work)

	rep := newReport()
	if err := recordHost(env, rep); err != nil {
		return nil, err
	}
	steal0, total0 := cpuSteal()
	var err error
	switch {
	case env.workload == "table2-offline":
		err = runOffline(ctx, env, rep)
	default:
		err = runServing(ctx, env, rep)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// CPU time the hypervisor gave other guests while this one was
		// runnable: a run with much of it measured a slower machine
		rep.infof("host steal: %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	return rep, err
}

// cpuSteal reads the steal and total jiffies of all CPUs from
// /proc/stat; both are 0 where it is missing.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// recordHost prints what a run's numbers depend on, and refuses a
// predictd built with the race detector: its numbers are not release
// numbers.
func recordHost(env *runEnv, rep *report) error {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rep.infof("host: %s, GOMAXPROCS %d, nproc %d, cpu %q", runtime.Version(), runtime.GOMAXPROCS(0), env.nproc, cpu)
	rep.infof("workload %s, seed %d, %gs measured, trace %v", env.workload, env.seed, env.seconds, env.trace)
	if env.workload == "table2-offline" {
		return nil
	}
	race, err := raceEnabled(env.predictd)
	if err != nil {
		return err
	}
	if race {
		return errors.New("predictd was built with -race; the benchmark measures release builds")
	}
	rep.infof("predictd: release build (-race=false in its build settings)")
	return nil
}

// raceEnabled reads the binary's build settings, as go version -m prints
// them.
func raceEnabled(bin string) (bool, error) {
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return false, fmt.Errorf("reading build info of %s: %w", bin, err)
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true", nil
		}
	}
	return false, nil
}
