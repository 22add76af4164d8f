package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
)

// servingConfig is one serving workload. The numbers are recorded in
// README.md's workload table; change them there too.
type servingConfig struct {
	name   string
	routed bool // clusterrouter over 2 follower shards fed by a churning compiler
	ases   int  // seeded world size every process builds

	refRate float64 // addresses/s of the latency measurement (see README)
	setups  int     // set-ups per run; setup_s is their calm median
}

const (
	batchSize  = 256
	numBatches = 2048 // distinct pre-generated batches, cycled
	loadConns  = 2
	// The measured time (--seconds) is split: refShare of it at the
	// reference rate, the rest over satBursts saturation bursts.
	refShare  = 0.75
	refParts  = 4
	satBursts = 4
	// A neighbour's CPU burst shows as hypervisor steal and is not
	// charged to the system: reference latency counts only samples that
	// saw at most maxSteal in every sliceLen slice they spanned.
	maxSteal   = 0.01
	minCalm    = 1100                   // calm samples wanted for a p99: >= 10 beyond it
	minCalmP50 = 200                    // calm samples wanted for a median
	churnEvery = 100 * time.Millisecond // compiler cadence on routed-churn
	feedPoll   = 50 * time.Millisecond  // follower fetch cadence
)

var (
	nodeStatic = servingConfig{
		name: "node-static", ases: 300,
		refRate: 100000, setups: 21,
	}
	routedChurn = servingConfig{
		name: "routed-churn", routed: true, ases: 300,
		refRate: 30000, setups: 15,
	}
)

// topology is one running serving deployment.
type topology struct {
	entry *proc   // where the driver sends batches
	procs []*proc // every system process, feed first
	nodes []*proc // the shard nodes (or the single node)
	feed  *proc   // compiler (routed only)
}

// launch starts the workload's processes and returns once every one
// answers /readyz 200 and every clusterd reports the same table
// generation. The returned duration runs from the first exec.
func launch(ctx context.Context, e *env, c servingConfig, tag string) (*topology, time.Duration, error) {
	seed := strconv.FormatInt(e.seed, 10)
	ases := strconv.Itoa(c.ases)
	sinks := func(name string) string { return filepath.Join(e.work, "sinks-"+name) }
	t := &topology{}
	start := time.Now()
	if !c.routed {
		n, err := e.procs.start(ctx, e.bin, e.work, "clusterd", "clusterd"+tag,
			"-addr", "127.0.0.1:0", "-ases", ases, "-seed", seed, "-churn-every", "0",
			"-sink-dir", sinks("clusterd"+tag))
		if err != nil {
			return nil, 0, err
		}
		t.entry, t.procs, t.nodes = n, []*proc{n}, []*proc{n}
	} else {
		f, err := e.procs.start(ctx, e.bin, e.work, "clusterd", "compiler"+tag,
			"-addr", "127.0.0.1:0", "-ases", ases, "-seed", seed, "-feed-serve",
			"-churn-every", churnEvery.String(), "-sink-dir", sinks("compiler"+tag))
		if err != nil {
			return nil, 0, err
		}
		t.feed = f
		t.procs = append(t.procs, f)
		var shards string
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("shard%d%s", i, tag)
			n, err := e.procs.start(ctx, e.bin, e.work, "clusterd", name,
				"-addr", "127.0.0.1:0", "-feed", f.base, "-feed-poll", feedPoll.String(),
				"-shard-index", strconv.Itoa(i), "-shard-count", "2", "-sink-dir", sinks(name))
			if err != nil {
				return nil, 0, err
			}
			t.nodes = append(t.nodes, n)
			t.procs = append(t.procs, n)
			if i > 0 {
				shards += ","
			}
			shards += n.base
		}
		r, err := e.procs.start(ctx, e.bin, e.work, "clusterrouter", "router"+tag,
			"-addr", "127.0.0.1:0", "-shards", shards)
		if err != nil {
			return nil, 0, err
		}
		t.entry = r
		t.procs = append(t.procs, r)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready, err := t.ready(ctx)
		if err != nil {
			return nil, 0, err
		}
		if ready {
			return t, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("%s not ready within 60s", c.name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ready is one readiness round over every process.
func (t *topology) ready(ctx context.Context) (bool, error) {
	var gen uint64
	first := true
	for _, p := range t.procs {
		ok, g, err := p.readyz(ctx)
		if err != nil || !ok {
			return false, err
		}
		if p.kind != "clusterd" {
			continue
		}
		if !first && g != gen {
			return false, nil
		}
		gen, first = g, false
	}
	return true, nil
}

func (t *topology) stop(ps *procSet) {
	for i := len(t.procs) - 1; i >= 0; i-- {
		ps.remove(t.procs[i])
	}
}

// runServing runs node-static or routed-churn.
func runServing(ctx context.Context, e *env, c servingConfig) (*result, error) {
	w, err := newServedWorld(e.seed, c.ases)
	if err != nil {
		return nil, err
	}
	batches, err := makeBatches(w.world, e.seed, numBatches, batchSize)
	if err != nil {
		return nil, err
	}

	// Set up several times; the last deployment stays up for the load.
	// Set-ups after the load were tried too: on node-static they read
	// about 20% slower than those before it, so a median over both
	// groups would sit on the edge between two clusters.
	var setups, steals []float64
	var topo *topology
	for i := 0; i < c.setups; i++ {
		total0, steal0 := hostCPU()
		t, d, err := launch(ctx, e, c, fmt.Sprintf("-%d", i))
		if err != nil {
			return nil, err
		}
		steal := stealShare(total0, steal0)
		setups = append(setups, netOfSteal(d.Seconds(), steal))
		steals = append(steals, steal)
		if i < c.setups-1 {
			t.stop(e.procs)
		} else {
			topo = t
		}
	}
	setupS := calmMedian(setups, steals)
	logf("%s: set-up %.3fs (calm median of %.3f; steal %.3f)", c.name, setupS, setups, steals)

	if e.trace {
		return runServingTraced(ctx, e, c, w, batches, topo)
	}

	lc := newLoadClient(loadConns)
	url := topo.entry.base + "/cluster"
	run := newServingRun(c, w, batches)
	// Warm-up: connections, server heaps and caches.
	run.phase(lc.runPhase(ctx, url, batches, 0, c.refRate, time.Second, phaseOptions{}))

	// The reference load runs in refParts phases, with the host's speed
	// sampled between them (see speedProbe). Latency is taken over the
	// samples the host's steal left alone, or, if fewer than minCalmP50
	// were, over the least disturbed samples; CPU over every phase.
	var scored []scoredSample
	var cpu time.Duration
	okAddrs := 0
	for i := 0; i < refParts; i++ {
		before, err := sampleAll(ctx, topo.procs)
		if err != nil {
			return nil, err
		}
		ph := lc.runPhase(ctx, url, batches, run.next, c.refRate, time.Duration(refShare*e.seconds/refParts*float64(time.Second)), phaseOptions{})
		after, err := sampleAll(ctx, topo.procs)
		if err != nil {
			return nil, err
		}
		e.speed.sample(speedReps)
		run.phase(ph)
		scored = append(scored, ph.scored()...)
		for k := range topo.procs {
			cpu += after[k].cpu - before[k].cpu
		}
		okAddrs += ph.stats().okBatches * batchSize
		logf("%s: reference phase %d: host steal %.1f%%", c.name, i, 100*ph.steal)
	}
	calm := calmest(scored, maxSteal, minCalmP50)
	refStats := statsOf(calm)
	logf("%s: reference %.0f addr/s: %d of %d batches calm, p50 %.3fms, p99 %.3fms (%d samples beyond), lateness p99 %.3fms, %d failed",
		c.name, c.refRate, refStats.samples, len(scored), refStats.p50, refStats.p99, refStats.beyondP99, refStats.lateP99, refStats.failed)

	capacity, err := run.capacity(ctx, e, lc, url, time.Duration((1-refShare)*e.seconds/satBursts*float64(time.Second)), topo.procs)
	if err != nil {
		return nil, err
	}

	final, err := sampleAll(ctx, topo.procs)
	if err != nil {
		return nil, err
	}
	topo.stop(e.procs)

	wrong, err := run.check(e.seed)
	if err != nil {
		return nil, err
	}
	failed := run.failed + wrong
	logf("%s: %d of %d batches failed (%d with wrong answers)", c.name, failed, run.attempted, wrong)

	var hwmKB int64
	for i := range topo.procs {
		hwmKB += final[i].hwmKB
	}
	res := &result{Correct: failed == 0, Attempted: run.attempted, Failed: failed}
	// Only set-up is scaled by the host's speed (see speedProbe). The
	// kernel does not track the served path: over 60 alternating samples
	// its time and the saturation rate correlated -0.1, and over ten-run
	// sets scaling did not narrow the spreads of latency, capacity and
	// CPU per address on both serving workloads.
	res.setSpeedBound("setup_s", setupS, "s", 1)
	res.set("latency_p50_ms", refStats.p50, "ms")
	res.set("capacity_addrs_per_s", capacity, "addr/s")
	res.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(okAddrs), "us")
	res.set("peak_rss_mb", float64(hwmKB)/1024, "MiB")
	return res, nil
}

// servingRun decodes and checks every measured phase and keeps the
// run's attempted/failed totals.
type servingRun struct {
	c          servingConfig
	w          *servedWorld
	batches    []batch
	static     *bgp.Merged // node-static's reference, checked as phases end
	next       int         // first batch of the next phase, so phases cycle on
	answered   int32       // samples decoded so far; row.sample indexes them
	rows       []row       // routed-churn: rows awaiting the churn replay
	wrong      map[int32]bool
	mislabeled int // rows the churn replay found one generation stale
	attempted  int
	failed     int
}

func newServingRun(c servingConfig, w *servedWorld, batches []batch) *servingRun {
	r := &servingRun{c: c, w: w, batches: batches, wrong: make(map[int32]bool)}
	if !c.routed {
		r.static = w.merged()
	}
	return r
}

// phase decodes a finished phase's responses, off the timed path, and
// adds its batches to the run's totals. On node-static every row is
// checked at once; routed-churn rows wait for check, which replays the
// churn.
func (r *servingRun) phase(ph *phase) {
	r.next = (r.next + len(ph.samples)) % len(r.batches)
	var rows []row
	for i := range ph.samples {
		s := &ph.samples[i]
		r.attempted++
		if !s.ok() {
			r.failed++
			continue
		}
		ref := r.answered
		r.answered++
		var ok bool
		rows, ok = decodeRows(s.body, r.batches[s.batch].addrs, r.c.routed, ref, rows[:0])
		s.body = nil
		switch {
		case !ok:
			r.wrong[ref] = true
		case r.static != nil:
			for k := range rows {
				if rows[k].gen != 0 || !agrees(r.static, &rows[k]) {
					r.wrong[ref] = true
				}
			}
		default:
			r.rows = append(r.rows, rows...)
		}
	}
}

// check finishes the oracle (the churn replay on routed-churn) and
// returns how many batches carried a wrong answer.
func (r *servingRun) check(seed int64) (int, error) {
	if r.c.routed {
		cr, err := checkRows(r.rows, r.w, bgpsim.NewChurnGen(r.w.universe, churnConfig(seed)))
		if err != nil {
			return 0, err
		}
		logf("%s: oracle: %d rows up to generation %d, %d wrong (%d mislabeled)",
			r.c.name, len(r.rows), cr.maxGen, cr.wrongRows, cr.mislabeled)
		r.mislabeled = cr.mislabeled
		for ref := range cr.wrong {
			r.wrong[ref] = true
		}
	}
	return len(r.wrong), nil
}

// capacity is the addresses the system's processes answer per second of
// the host's CPUs at saturation: nproc over the CPU time (user+sys, from
// /proc/<pid>/stat) they spent per address answered in satBursts
// saturation bursts. CPU time leaves out hypervisor steal, which in an
// episode of 15-30% steal halved the bursts' wall-clock rate; their rates
// are logged. Each burst's answers are checked before the next burst
// starts.
func (r *servingRun) capacity(ctx context.Context, e *env, lc *loadClient, url string, dur time.Duration, procs []*proc) (float64, error) {
	var cpu time.Duration
	var rates []float64
	answered := 0
	for i := 0; i < satBursts; i++ {
		before, err := sampleAll(ctx, procs)
		if err != nil {
			return 0, err
		}
		ph := lc.saturate(ctx, url, r.batches, r.next, dur)
		after, err := sampleAll(ctx, procs)
		if err != nil {
			return 0, err
		}
		e.speed.sample(2)
		r.phase(ph)
		for k := range procs {
			cpu += after[k].cpu - before[k].cpu
		}
		ok := ph.stats().okBatches * batchSize
		answered += ok
		rates = append(rates, float64(ok)/ph.wall.Seconds())
		// Let the system drain before the next burst.
		time.Sleep(100 * time.Millisecond)
	}
	capacity := float64(runtime.NumCPU()*answered) / cpu.Seconds()
	logf("%s: saturation: %d addresses in %.3f CPU s: %.4g addr/s (wall-clock burst rates %.4v)", r.c.name, answered, cpu.Seconds(), capacity, rates)
	return capacity, nil
}
