package main

// The traced run. It reports the per-layer metrics of BENCHMARK.json by
// timing calls into each layer's public functions on the workload's own
// seeded inputs, each call wrapped in an obsv span opened here, in the
// benchmark's files; the programs gain no tracing for it. The spans are
// written as a Chrome trace, merged with the /debug/trace dumps of the
// running processes (whose clusterd.batch/router.shard spans join the
// benchmark's trace through the X-Netcluster-Trace header) and checked
// with tracecheck.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
	"github.com/netaware/netcluster/internal/weblog"
)

// perLayer lists every per-layer metric with its unit. A workload whose
// path lacks a layer's process reports it as 0 (see benchmark/README.md).
var perLayer = []struct{ name, unit string }{
	{"netutil.parse_ns_per_addr", "ns"},
	{"netutil.format_ns_per_addr", "ns"},
	{"shard.parse_list_us", "us"},
	{"shard.resolve_us", "us"},
	{"shard.encode_us", "us"},
	{"shard.encode_bytes_per_addr", "B"},
	{"shard.encode_allocs", "count"},
	{"shard.decode_us", "us"},
	{"shard.router.group_us", "us"},
	{"shard.router.batch_us", "us"},
	{"shard.router.wait_us", "us"},
	{"shard.router.self_us", "us"},
	{"shard.router.max_shard_share", "ratio"},
	{"shard.router.degraded_share", "ratio"},
	{"shard.follower.step_us", "us"},
	{"shard.follower.join_ms", "ms"},
	{"shard.follower.resyncs", "count"},
	{"churn.lookup_batch_ns_per_addr", "ns"},
	{"churn.apply_us", "us"},
	{"churn.mislabeled_rows", "count"},
	{"bgp.lookup_batch_ns_per_addr", "ns"},
	{"bgp.merged_lookup_ns", "ns"},
	{"bgp.compile_ms", "ms"},
	{"bgp.delta_apply_us", "us"},
	{"weblog.parse_ns_per_req", "ns"},
	{"weblog.fast_path_share", "ratio"},
	{"cluster.engine_ns_per_req", "ns"},
	{"cluster.lookups_per_req", "ratio"},
	{"cluster.threshold_ms", "ms"},
	{"cluster.bounded_observe_ns_per_addr", "ns"},
	{"clusterd.cpu_us_per_addr", "us"},
	{"clusterd.alloc_bytes_per_addr", "B"},
	{"clusterd.mallocs_per_addr", "count"},
	{"clusterd.gc_cycles_per_kaddr", "count"},
	{"clusterd.gc_pause_ms", "ms"},
	{"clusterd.rejected_share", "ratio"},
	{"clusterd.unaccounted_us", "us"},
	{"clusterrouter.cpu_us_per_addr", "us"},
	{"clusterrouter.alloc_bytes_per_addr", "B"},
	{"clusterrouter.mallocs_per_addr", "count"},
	{"clusterrouter.gc_cycles_per_kaddr", "count"},
	{"clusterrouter.gc_pause_ms", "ms"},
	{"clusterrouter.unaccounted_us", "us"},
	{"obsv.trace_overhead_share", "ratio"},
	{"driver.service_p50_us", "us"},
	{"driver.latency_p99_ms", "ms"},
	{"driver.lateness_p99_ms", "ms"},
	{"driver.conns_opened", "count"},
	{"driver.host_steal_share", "ratio"},
	{"driver.host_slowdown", "ratio"},
}

// fillLayers sets every per-layer metric the run did not measure to 0.
func fillLayers(res *result) {
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.name]; !ok {
			res.set(l.name, 0, l.unit)
		}
	}
	for name := range res.Metrics {
		if unitOf(name) == "" {
			panic("unlisted per-layer metric " + name)
		}
	}
}

func unitOf(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// put records a per-layer metric under its listed unit.
func put(res *result, name string, v float64) { res.set(name, v, unitOf(name)) }

// timed runs fn inside a span named name, child of ctx, and returns the
// span's duration.
func timed(ctx context.Context, name string, fn func(ctx context.Context)) time.Duration {
	sctx, sp := obsv.StartTraceSpan(ctx, name)
	fn(sctx)
	return sp.End()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of ds in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// stageBatches is how many batches the in-process stage timings use.
const stageBatches = 200

// nodeStages times one node's served path, stage by stage, over the
// given batches: text parse, batched table lookup, busy-cluster
// accounting, resolve, JSON encode; plus the router-side decode of the
// encoded answer and the netutil and bgp kernels underneath. It returns
// the median per-batch sum of the stages a node runs.
func nodeStages(ctx context.Context, res *result, tbl *churn.Table, merged *bgp.Merged, batches []batch) (sum time.Duration, err error) {
	acc, err := cluster.NewBoundedAccumulator(cluster.BoundedConfig{})
	if err != nil {
		return 0, err
	}
	var parseList, lookup, kernel, observe, resolve, encode, decode, total []time.Duration
	var parseNS, formatNS, mergedNS, encBytes []float64
	var dst []bgp.Match
	for i := 0; i < stageBatches && i < len(batches); i++ {
		b := batches[i]
		n := len(b.addrs)
		bctx, root := obsv.StartTraceSpan(ctx, "bench.node")
		var parsed []netutil.Addr
		d1 := timed(bctx, "shard.ParseAddrList", func(context.Context) {
			parsed, err = shard.ParseAddrList(bytes.NewReader(b.body), shard.DefaultMaxBatch)
		})
		if err != nil {
			return 0, err
		}
		var gen uint64
		d2 := timed(bctx, "churn.Table.LookupBatch", func(context.Context) { dst, gen = tbl.LookupBatch(parsed, dst) })
		d3 := timed(bctx, "cluster.BoundedAccumulator.Observe", func(context.Context) {
			for _, m := range dst {
				if m.Prefix.IsZero() {
					acc.ObserveUnclustered()
				} else {
					acc.Observe(m.Prefix, 0)
				}
			}
		})
		resp := shard.BatchResponse{Generation: gen, Results: make([]shard.LookupResult, n)}
		d4 := timed(bctx, "shard.ResolveMatch", func(context.Context) {
			for k, a := range parsed {
				resp.Results[k] = shard.ResolveMatch(a, dst[k], gen)
			}
		})
		var buf bytes.Buffer
		d5 := timed(bctx, "shard.encode", func(context.Context) { err = json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			return 0, err
		}
		root.End()
		var back shard.BatchResponse
		d6 := timed(ctx, "shard.decode", func(context.Context) { err = json.Unmarshal(buf.Bytes(), &back) })
		if err != nil {
			return 0, err
		}
		d7 := timed(ctx, "bgp.Compiled.LookupBatch", func(context.Context) { dst = tbl.Load().LookupBatch(parsed, dst) })

		// Per-address kernels, each timed over the whole batch.
		lines := bytes.Split(bytes.TrimSpace(b.body), []byte{'\n'})
		strs := make([]string, len(lines))
		for k, l := range lines {
			strs[k] = string(l)
		}
		dp := timed(ctx, "netutil.ParseAddr", func(context.Context) {
			for _, s := range strs {
				if _, e := netutil.ParseAddr(s); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return 0, err
		}
		df := timed(ctx, "netutil.String", func(context.Context) {
			for k, a := range parsed {
				_ = a.String()
				_ = dst[k].Prefix.String()
			}
		})
		dm := timed(ctx, "bgp.Merged.Lookup", func(context.Context) {
			for _, a := range parsed {
				merged.Lookup(a)
			}
		})
		parseList = append(parseList, d1)
		lookup = append(lookup, d2)
		observe = append(observe, d3)
		resolve = append(resolve, d4)
		encode = append(encode, d5)
		decode = append(decode, d6)
		kernel = append(kernel, d7)
		total = append(total, d1+d2+d3+d4+d5)
		parseNS = append(parseNS, float64(dp.Nanoseconds())/float64(n))
		formatNS = append(formatNS, float64(df.Nanoseconds())/float64(n))
		mergedNS = append(mergedNS, float64(dm.Nanoseconds())/float64(n))
		encBytes = append(encBytes, float64(buf.Len())/float64(n))
	}
	n := float64(len(batches[0].addrs))
	put(res, "shard.parse_list_us", medianDur(parseList, time.Microsecond))
	put(res, "churn.lookup_batch_ns_per_addr", medianDur(lookup, time.Nanosecond)/n)
	put(res, "bgp.lookup_batch_ns_per_addr", medianDur(kernel, time.Nanosecond)/n)
	put(res, "cluster.bounded_observe_ns_per_addr", medianDur(observe, time.Nanosecond)/n)
	put(res, "shard.resolve_us", medianDur(resolve, time.Microsecond))
	put(res, "shard.encode_us", medianDur(encode, time.Microsecond))
	put(res, "shard.decode_us", medianDur(decode, time.Microsecond))
	put(res, "shard.encode_bytes_per_addr", median(encBytes))
	put(res, "netutil.parse_ns_per_addr", median(parseNS))
	put(res, "netutil.format_ns_per_addr", median(formatNS))
	put(res, "bgp.merged_lookup_ns", median(mergedNS))
	put(res, "shard.encode_allocs", encodeAllocs(tbl, batches[0]))
	return time.Duration(medianDur(total, time.Nanosecond)), nil
}

// encodeAllocs counts heap allocations per node BatchResponse encode.
func encodeAllocs(tbl *churn.Table, b batch) float64 {
	dst, gen := tbl.LookupBatch(b.addrs, nil)
	resp := shard.BatchResponse{Generation: gen, Results: make([]shard.LookupResult, len(b.addrs))}
	for k, a := range b.addrs {
		resp.Results[k] = shard.ResolveMatch(a, dst[k], gen)
	}
	const runs = 50
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		buf.Reset()
		json.NewEncoder(&buf).Encode(resp)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// tableLayers times the table's write side on the seeded world: a full
// compile, and the seeded churn schedule through both the incremental
// compiler and the RCU table that publishes it.
func tableLayers(ctx context.Context, res *result, merged func() *bgp.Merged, universe *bgp.Snapshot, seed int64) {
	var compiles []time.Duration
	for i := 0; i < 5; i++ {
		m := merged()
		compiles = append(compiles, timed(ctx, "bgp.Merged.Compile", func(context.Context) { m.Compile() }))
	}
	put(res, "bgp.compile_ms", medianDur(compiles, time.Millisecond))

	const deltas = 60
	gen := bgpsim.NewChurnGen(universe, churnConfig(seed))
	ds := make([]bgp.Delta, deltas)
	for i := range ds {
		ds[i] = gen.Next()
	}
	inc := bgp.NewIncremental(merged())
	var incs, swaps []time.Duration
	for _, d := range ds {
		incs = append(incs, timed(ctx, "bgp.Incremental.Apply", func(c context.Context) { inc.ApplyCtx(c, d) }))
	}
	tbl := churn.New(merged())
	for _, d := range ds {
		swaps = append(swaps, timed(ctx, "churn.Table.Apply", func(c context.Context) { tbl.ApplyCtx(c, d) }))
	}
	put(res, "bgp.delta_apply_us", medianDur(incs, time.Microsecond))
	put(res, "churn.apply_us", medianDur(swaps, time.Microsecond))
}

// routerStages times the router's share of a routed batch against live
// shard nodes: Map.Group, the whole in-process Router.BatchCtx fan-out,
// and the slowest shard's direct round trip for the same sub-batch. The
// router's own work is the batch time minus that wait.
type routerTimes struct {
	batch, wait, group, decode, encode time.Duration // per-batch medians
	slowest                            int           // addresses in the slowest shard's sub-batch (median)
}

func routerStages(ctx context.Context, res *result, bases []string, batches []batch) (routerTimes, error) {
	m := shard.NewMap(len(bases))
	for i := range m.Shards {
		m.Shards[i].Addr = bases[i]
	}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	rt, err := shard.NewRouter(shard.RouterConfig{Map: m, Client: client})
	if err != nil {
		return routerTimes{}, err
	}
	var batchD, waitD, groupD, decodeD, encodeD []time.Duration
	var shares []float64
	var slowest []float64
	degraded := 0
	for i := 0; i < stageBatches && i < len(batches); i++ {
		b := batches[i]
		var groups [][]int
		groupD = append(groupD, timed(ctx, "shard.Map.Group", func(context.Context) { groups = m.Group(b.addrs) }))
		var resp *shard.RouterBatchResponse
		batchD = append(batchD, timed(ctx, "shard.Router.BatchCtx", func(c context.Context) { resp = rt.BatchCtx(c, b.addrs) }))
		if len(resp.Degradation) > 0 {
			degraded++
		}
		var buf bytes.Buffer
		encodeD = append(encodeD, timed(ctx, "shard.router.encode", func(context.Context) { json.NewEncoder(&buf).Encode(resp) }))

		// The slowest shard's direct round trip for its sub-batch, and
		// the decode of every shard's answer.
		var wait, dec time.Duration
		maxN, slowN := 0, 0
		for sid, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			if len(idxs) > maxN {
				maxN = len(idxs)
			}
			var body []byte
			for _, k := range idxs {
				body = append(b.addrs[k].Append(body), '\n')
			}
			var answer []byte
			d := timed(ctx, "shard.direct", func(c context.Context) {
				answer, err = postBody(c, client, bases[sid]+"/cluster", body)
			})
			if err != nil {
				return routerTimes{}, err
			}
			if d > wait {
				wait, slowN = d, len(idxs)
			}
			var br shard.BatchResponse
			dec += timed(ctx, "shard.decode", func(context.Context) { err = json.Unmarshal(answer, &br) })
			if err != nil {
				return routerTimes{}, err
			}
		}
		waitD = append(waitD, wait)
		decodeD = append(decodeD, dec)
		shares = append(shares, float64(maxN)/float64(len(b.addrs)))
		slowest = append(slowest, float64(slowN))
	}
	rtm := routerTimes{
		batch:   time.Duration(medianDur(batchD, 1)),
		wait:    time.Duration(medianDur(waitD, 1)),
		group:   time.Duration(medianDur(groupD, 1)),
		decode:  time.Duration(medianDur(decodeD, 1)),
		encode:  time.Duration(medianDur(encodeD, 1)),
		slowest: int(median(slowest)),
	}
	put(res, "shard.router.group_us", us(rtm.group))
	put(res, "shard.router.batch_us", us(rtm.batch))
	put(res, "shard.router.wait_us", us(rtm.wait))
	put(res, "shard.router.self_us", us(rtm.batch-rtm.wait))
	put(res, "shard.router.max_shard_share", median(shares))
	put(res, "shard.router.degraded_share", float64(degraded)/float64(len(batchD)))
	return rtm, nil
}

func postBody(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	obsv.HTTPInject(ctx, req.Header)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return out.Bytes(), nil
}

// followerLayers joins benchmark-owned followers to a live feed and
// steps one of them as the feed publishes: Join (snapshot download and
// warm start) and Step (delta fetch, decode, apply). publish, when set,
// makes the feed publish one delta; without it the feed churns on its
// own and the follower waits for it.
func followerLayers(ctx context.Context, res *result, feedBase string, publish func()) error {
	var joins []time.Duration
	var f *shard.Follower
	for i := 0; i < 3; i++ {
		var err error
		joins = append(joins, timed(ctx, "shard.Join", func(context.Context) { f, err = shard.Join(feedBase, nil, nil) }))
		if err != nil {
			return err
		}
	}
	put(res, "shard.follower.join_ms", medianDur(joins, time.Millisecond))
	var steps []time.Duration
	for len(steps) < 20 {
		if publish != nil {
			publish()
		} else {
			time.Sleep(churnEvery)
		}
		var applied int
		var err error
		d := timed(ctx, "shard.Follower.Step", func(c context.Context) { applied, err = f.Step(c) })
		if err != nil {
			return err
		}
		if applied > 0 {
			steps = append(steps, d)
		}
	}
	put(res, "shard.follower.step_us", medianDur(steps, time.Microsecond))
	return nil
}

// logLayers times the offline pipeline's layers on a CLF log: the
// streaming parser alone, then the clustering engine over the parsed
// log with the paper-path table, and the busy-cluster cut.
func logLayers(ctx context.Context, res *result, logPath string, merged *bgp.Merged) error {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	before := obsv.TakeSnapshot().Counters
	var st weblog.StreamStats
	dParse := timed(ctx, "weblog.StreamCLF", func(c context.Context) {
		st, err = weblog.StreamCLFCtx(c, bytes.NewReader(data), func(weblog.StreamRecord) bool { return true })
	})
	if err != nil {
		return err
	}
	mid := obsv.TakeSnapshot().Counters
	fast := float64(mid["weblog.parse.fast"] - before["weblog.parse.fast"])
	strict := float64(mid["weblog.parse.strict"] - before["weblog.parse.strict"])
	put(res, "weblog.parse_ns_per_req", float64(dParse.Nanoseconds())/float64(st.Records))
	put(res, "weblog.fast_path_share", fast/(fast+strict))

	l, err := weblog.ReadCLF(bytes.NewReader(data), logPath)
	if err != nil {
		return err
	}
	var r *cluster.Result
	dEngine := timed(ctx, "cluster.ClusterLog", func(c context.Context) {
		r = cluster.ClusterLogCtx(c, l, cluster.NetworkAware{Table: merged})
	})
	after := obsv.TakeSnapshot().Counters
	put(res, "cluster.engine_ns_per_req", float64(dEngine.Nanoseconds())/float64(r.TotalRequests))
	put(res, "cluster.lookups_per_req", float64(after["bgp.lookup.count"]-mid["bgp.lookup.count"])/float64(r.TotalRequests))
	var th []time.Duration
	for i := 0; i < 5; i++ {
		th = append(th, timed(ctx, "cluster.ThresholdBusy", func(context.Context) { r.ThresholdBusy(offlineThreshold) }))
	}
	put(res, "cluster.threshold_ms", medianDur(th, time.Millisecond))
	return nil
}

// writeTrace writes the benchmark's spans as a Chrome trace, merges it
// with the given process dumps and has tracecheck validate the merge.
func writeTrace(ctx context.Context, e *env, dumps map[string][]byte) error {
	dir := filepath.Join(e.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []string{filepath.Join(dir, "benchmark.json")}
	if err := obsv.WriteTraceFile(files[0]); err != nil {
		return err
	}
	for name, data := range dumps {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		files = append(files, path)
	}
	merged := filepath.Join(dir, "merged.json")
	args := append([]string{"-merge", merged}, files...)
	out, err := exec.CommandContext(ctx, filepath.Join(e.bin, "tracecheck"), args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("tracecheck rejected the trace: %v: %s", err, out)
	}
	logf("trace: %s", bytes.TrimSpace(out))
	// Keep the merged trace next to the results for a reader to open.
	data, err := os.ReadFile(merged)
	if err != nil {
		return err
	}
	keep := filepath.Join(filepath.Dir(filepath.Dir(e.work)), "results")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(keep, filepath.Base(e.work)+"-trace.json"), data, 0o644)
}
