package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
	"github.com/netaware/netcluster/internal/weblog"
)

const (
	// lowRate is the batch rate of the single-batch service measurement:
	// low enough that batches never queue behind each other.
	lowRate    = 40 * batchSize // addresses/s
	lowBatches = 160
)

// runServingTraced is the traced run of node-static and routed-churn.
func runServingTraced(ctx context.Context, e *env, c servingConfig, w *servedWorld, batches []batch, topo *topology) (*result, error) {
	res := &result{}
	lc := newLoadClient(loadConns)
	url := topo.entry.base + "/cluster"
	run := newServingRun(c, w, batches)
	run.phase(lc.runPhase(ctx, url, batches, 0, c.refRate, time.Second, phaseOptions{}))

	// Single-batch service time at a low rate, untraced then traced: the
	// untraced p50 is what the stage sum must reconcile with, and the
	// difference is the tracing overhead.
	lowDur := time.Duration(float64(lowBatches*batchSize) / lowRate * float64(time.Second))
	plain := lc.runPhase(ctx, url, batches, run.next, lowRate, lowDur, phaseOptions{})
	run.phase(plain)
	traced := lc.runPhase(ctx, url, batches, run.next, lowRate, lowDur, phaseOptions{traceRoot: "bench.batch"})
	run.phase(traced)
	svc, tsvc := serviceP50(plain), serviceP50(traced)
	put(res, "driver.service_p50_us", us(svc))
	put(res, "obsv.trace_overhead_share", float64(tsvc-svc)/float64(svc))

	// Outside-in process accounting over a reference-rate phase, which
	// also gives the reference p99 (not an end-to-end metric: hypervisor
	// steal moves it up to 5x between runs on the host this was tuned on).
	accDur := time.Duration(0.6 * e.seconds * float64(time.Second))
	before, err := sampleAll(ctx, topo.procs)
	if err != nil {
		return nil, err
	}
	acc := lc.runPhase(ctx, url, batches, run.next, c.refRate, accDur, phaseOptions{})
	after, err := sampleAll(ctx, topo.procs)
	if err != nil {
		return nil, err
	}
	accStats := acc.stats()
	run.phase(acc)
	processLayers(res, topo, before, after, accStats)
	put(res, "driver.lateness_p99_ms", accStats.lateP99)
	calm := statsOf(calmest(acc.scored(), maxSteal, minCalm))
	logf("%s: reference p99 %.3fms over %d calm batches (%d beyond)", c.name, calm.p99, calm.samples, calm.beyondP99)
	put(res, "driver.latency_p99_ms", calm.p99)
	put(res, "driver.conns_opened", float64(lc.dials.Load()))

	// In-process stages on the same batches, in serving order.
	ctx, root := obsv.StartTraceSpan(ctx, "bench.stages")
	tbl := churn.New(w.merged())
	nodeSum, err := nodeStages(ctx, res, tbl, w.merged(), batches)
	if err != nil {
		return nil, err
	}
	var bases []string
	for _, n := range topo.nodes {
		bases = append(bases, n.base)
	}
	rtm, err := routerStages(ctx, res, bases, batches)
	if err != nil {
		return nil, err
	}
	if c.routed {
		// The router parses the whole batch, groups, waits for the
		// slowest shard, decodes every answer and re-encodes the merge;
		// the shard's own remainder is its round trip minus its stages
		// for a sub-batch of that size.
		routerSum := time.Duration(res.Metrics["shard.parse_list_us"].Value*1e3) + rtm.group + rtm.wait + rtm.decode + rtm.encode
		put(res, "clusterrouter.unaccounted_us", us(svc-routerSum))
		put(res, "clusterd.unaccounted_us", us(rtm.wait)-us(nodeSum)*float64(rtm.slowest)/batchSize)
	} else {
		put(res, "clusterd.unaccounted_us", us(svc-nodeSum))
	}
	tableLayers(ctx, res, w.merged, w.universe, e.seed)

	// The feed: routed-churn's followers join the running compiler; the
	// other workloads have none, so a benchmark-owned follower joins an
	// in-process feed over the same seeded table.
	if c.routed {
		err = followerLayers(ctx, res, topo.feed.base, nil)
	} else {
		err = harnessFollower(ctx, res, c.ases, e.seed)
	}
	if err != nil {
		return nil, err
	}
	if c.routed {
		var resyncs float64
		for _, n := range topo.nodes {
			var snap obsv.Snapshot
			if err := n.getJSON(ctx, "/metrics.json", &snap); err != nil {
				return nil, err
			}
			resyncs += float64(snap.Counters["shard.follower.resyncs"])
		}
		put(res, "shard.follower.resyncs", resyncs)
	}

	// The offline layers on a small log over the same world.
	small := weblog.Nagano(0.01)
	small.Seed = e.seed
	l, err := weblog.Generate(w.world, small)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.work, "small.log")
	if err := writeWith(logPath, func(bw *bufio.Writer) error { return weblog.WriteCLF(bw, l) }); err != nil {
		return nil, err
	}
	if err := logLayers(ctx, res, logPath, w.merged()); err != nil {
		return nil, err
	}
	root.End()

	// Finish the oracle over every served row of this run.
	wrong, err := run.check(e.seed)
	if err != nil {
		return nil, err
	}
	put(res, "churn.mislabeled_rows", float64(run.mislabeled))

	dumps := map[string][]byte{}
	for _, p := range topo.procs {
		if dumps[p.name], err = p.getBytes(ctx, "/debug/trace"); err != nil {
			return nil, err
		}
	}
	if err := writeTrace(ctx, e, dumps); err != nil {
		return nil, err
	}
	topo.stop(e.procs)

	res.Attempted, res.Failed = run.attempted, run.failed+wrong
	res.Correct = res.Failed == 0
	fillLayers(res)
	return res, nil
}

// serviceP50 is the median send-to-last-byte time of a phase's batches.
func serviceP50(ph *phase) time.Duration {
	xs := make([]float64, 0, len(ph.samples))
	for i := range ph.samples {
		if s := &ph.samples[i]; s.ok() {
			xs = append(xs, float64(s.done-s.sent))
		}
	}
	return time.Duration(median(xs))
}

// processLayers turns the per-process samples around the accounting
// phase into per-address costs, summed per binary.
func processLayers(res *result, topo *topology, before, after []procSample, st phaseStats) {
	addrs := float64(st.okBatches * batchSize)
	type sums struct {
		cpu                   time.Duration
		alloc, mallocs, pause uint64
		gcs                   uint32
	}
	by := map[string]*sums{}
	for i, p := range topo.procs {
		s := by[p.kind]
		if s == nil {
			s = &sums{}
			by[p.kind] = s
		}
		s.cpu += after[i].cpu - before[i].cpu
		s.alloc += after[i].mem.TotalAlloc - before[i].mem.TotalAlloc
		s.mallocs += after[i].mem.Mallocs - before[i].mem.Mallocs
		s.gcs += after[i].mem.NumGC - before[i].mem.NumGC
		s.pause += after[i].mem.PauseTotalNs - before[i].mem.PauseTotalNs
	}
	for kind, s := range by {
		put(res, kind+".cpu_us_per_addr", float64(s.cpu.Microseconds())/addrs)
		put(res, kind+".alloc_bytes_per_addr", float64(s.alloc)/addrs)
		put(res, kind+".mallocs_per_addr", float64(s.mallocs)/addrs)
		put(res, kind+".gc_cycles_per_kaddr", float64(s.gcs)/addrs*1000)
		put(res, kind+".gc_pause_ms", float64(s.pause)/1e6)
	}
	put(res, "clusterd.rejected_share", float64(st.rejected)/float64(st.samples))
}

// harnessFollower measures Join and Step against an in-process feed
// (the shard package's cluster harness) over the seeded world, for the
// workloads that run no compiler node.
func harnessFollower(ctx context.Context, res *result, ases int, seed int64) error {
	before := obsv.TakeSnapshot().Counters["shard.follower.resyncs"]
	h, err := shard.NewCluster(shard.ClusterConfig{Shards: 1, ASes: ases, Seed: seed})
	if err != nil {
		return err
	}
	defer h.Close()
	err = followerLayers(ctx, res, h.FeedBase(), func() { h.Feed.Apply(h.ChurnGen.Next()) })
	put(res, "shard.follower.resyncs", float64(obsv.TakeSnapshot().Counters["shard.follower.resyncs"]-before))
	return err
}

// runOfflineTraced is offline-log's traced run: one clusterctl pass
// without and one with its trace written (the difference is the tracing
// overhead), then the layers of both pipelines timed in-process on the
// same seeded log and table.
func runOfflineTraced(ctx context.Context, e *env, in *offlineInputs, want offlineAnswer) (*result, error) {
	res := &result{}
	plain, err := in.clusterctl(ctx, e, in.logPath)
	if err != nil {
		return nil, err
	}
	ctlTrace := filepath.Join(e.work, "clusterctl-trace.json")
	metrics := filepath.Join(e.work, "clusterctl-metrics.json")
	traced, err := in.clusterctl(ctx, e, in.logPath, "-trace-out", ctlTrace, "-metrics-out", metrics)
	if err != nil {
		return nil, err
	}
	for _, r := range []*ctlRun{plain, traced} {
		res.Attempted++
		got, err := parseReport(r.stdout)
		if err == nil {
			err = got.diff(want)
		}
		if err != nil {
			logf("offline-log: pass disagrees with the reference: %v", err)
			res.Failed++
		}
	}
	put(res, "obsv.trace_overhead_share", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())

	ctx, root := obsv.StartTraceSpan(ctx, "bench.stages")
	if err := logLayers(ctx, res, in.logPath, in.merged); err != nil {
		return nil, err
	}
	// clusterctl's own counters for the paper path it ran.
	var snap obsv.Snapshot
	data, err := os.ReadFile(metrics)
	if err == nil {
		err = json.Unmarshal(data, &snap)
	}
	if err != nil {
		return nil, err
	}
	fast, strict := float64(snap.Counters["weblog.parse.fast"]), float64(snap.Counters["weblog.parse.strict"])
	if fast+strict > 0 {
		put(res, "weblog.fast_path_share", fast/(fast+strict))
	}
	if recs := snap.Counters["cluster.log.records"]; recs > 0 {
		put(res, "cluster.lookups_per_req", float64(snap.Counters["bgp.lookup.count"])/float64(recs))
	}

	// The served-path layers on the same table, fed the log's clients in
	// log order, 256 to a batch; router and follower against the shard
	// harness built over the same world.
	batches := logBatches(in.log, stageBatches, batchSize)
	tbl := churn.New(bgpsim.Merge(in.coll))
	if _, err := nodeStages(ctx, res, tbl, in.merged, batches); err != nil {
		return nil, err
	}
	h, err := shard.NewCluster(shard.ClusterConfig{Shards: 2, ASes: offlineASes, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	bases := []string{h.Map.Shards[0].Addr, h.Map.Shards[1].Addr}
	_, err = routerStages(ctx, res, bases, batches)
	h.Close()
	if err != nil {
		return nil, err
	}
	tableLayers(ctx, res, func() *bgp.Merged { return bgpsim.Merge(in.coll) }, in.universe, e.seed)
	if err := harnessFollower(ctx, res, offlineASes, e.seed); err != nil {
		return nil, err
	}
	root.End()

	ctlData, err := os.ReadFile(ctlTrace)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(ctx, e, map[string][]byte{"clusterctl": ctlData}); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fillLayers(res)
	return res, nil
}

// logBatches cuts the log's client addresses, in log order, into n
// POST /cluster batches of size addresses.
func logBatches(l *weblog.Log, n, size int) []batch {
	var out []batch
	b := batch{}
	for _, r := range l.Requests {
		if r.Client.IsUnspecified() {
			continue
		}
		b.addrs = append(b.addrs, r.Client)
		b.body = append(r.Client.Append(b.body), '\n')
		if len(b.addrs) == size {
			out = append(out, b)
			if len(out) == n {
				break
			}
			b = batch{}
		}
	}
	return out
}
