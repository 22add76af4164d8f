// Command benchmark is the repository's end-to-end benchmark. It builds
// nothing itself: benchmark/run.sh compiles the system binaries
// (clusterd, clusterrouter, clusterctl, tracecheck) and this driver from
// source, then runs
//
//	bash benchmark/run.sh --workload node-static --seed 1 --seconds 16 --trace 0
//
// from the repository root. The driver generates every input from the
// seed, launches the real binaries, drives them from this one process,
// checks every answer against the reference oracle (bgp.Merged.Lookup,
// or an in-process clustering of the same log), and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 a separate traced run reports the per-layer ones.
// Everything else (progress, the host fingerprint, per-phase details) goes
// to standard error and to a result file under .bench_build/results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// speedBound marks the metrics that move with the host's speed: +1
	// for a time, -1 for a rate (see speedProbe).
	speedBound map[string]int
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setSpeedBound sets a metric that moves with the host's speed.
func (r *result) setSpeedBound(name string, v float64, unit string, dir int) {
	r.set(name, v, unit)
	if r.speedBound == nil {
		r.speedBound = make(map[string]int)
	}
	r.speedBound[name] = dir
}

// env is what every workload gets: where the binaries are, a private
// scratch directory inside the checkout, and the run's parameters.
type env struct {
	bin     string // directory holding the built binaries
	work    string // per-run scratch directory, removed at exit
	seed    int64
	seconds float64
	trace   bool
	procs   *procSet
	speed   *speedProbe
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "node-static, routed-churn or offline-log")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 16, "measured time of one run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory with the built binaries")
	buildDir := flag.String("build-dir", ".bench_build", "scratch root inside the checkout")
	flag.Parse()

	// Processes start in their scratch directory, so the binaries need
	// an absolute path.
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(mustMkdir(filepath.Join(*buildDir, "work")),
		fmt.Sprintf("%s-seed%d-", *workload, *seed))
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	e := &env{bin: binDir, work: work, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: &procSet{}, speed: &speedProbe{}}
	host := hostFingerprint()
	logf("host: %s", host)
	e.speed.sample(2 * speedReps)

	began := time.Now()
	total0, steal0 := hostCPU()
	res, err := run(ctx, e, *workload)
	e.procs.stopAll()
	steal := stealShare(total0, steal0)
	e.speed.sample(2 * speedReps)
	slow := e.speed.slowdown()
	logf("run took %.1fs; the hypervisor stole %.1f%% of this host's CPU time meanwhile; host slowdown %.4f (kernel ms: %.1f)",
		time.Since(began).Seconds(), 100*steal, slow, e.speed.alu)
	switch {
	case err != nil:
	case e.trace:
		put(res, "driver.host_steal_share", steal)
		put(res, "driver.host_slowdown", slow)
	default:
		atReferenceSpeed(res, slow)
	}
	stop()
	if rmErr := os.RemoveAll(work); rmErr != nil {
		logf("removing %s: %v", work, rmErr)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	saveResult(*buildDir, *workload, *seed, *trace, host, slow, line)
	fmt.Println(string(line))
}

func run(ctx context.Context, e *env, workload string) (*result, error) {
	switch workload {
	case "node-static":
		return runServing(ctx, e, nodeStatic)
	case "routed-churn":
		return runServing(ctx, e, routedChurn)
	case "offline-log":
		return runOffline(ctx, e)
	case "":
		return nil, errors.New("--workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (want node-static, routed-churn or offline-log)", workload)
}

// saveResult keeps the final line next to the host fingerprint and the
// run's host slowdown, so a number is never read without the machine it
// was measured on.
func saveResult(buildDir, workload string, seed int64, trace int, host hostInfo, slow float64, line []byte) {
	dir := mustMkdir(filepath.Join(buildDir, "results"))
	doc, err := json.MarshalIndent(struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Trace    int             `json:"trace"`
		Time     time.Time       `json:"time"`
		Host     hostInfo        `json:"host"`
		Slowdown float64         `json:"host_slowdown"`
		Result   json.RawMessage `json:"result"`
	}{workload, seed, trace, time.Now().UTC(), host, slow, line}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)), doc, 0o644)
	}
	if err != nil {
		logf("saving result: %v", err)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
