package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

const (
	// offlineScale sizes the Nagano log (1.17M requests, ~165 MB) and,
	// as in loggen/bgpgen, the world: 5600*scale+300 ASes.
	offlineScale     = 0.1
	offlineASes      = int(5600*offlineScale) + 300
	offlineThreshold = 0.7
	setupsPerPass    = 2
)

// offlineInputs is the seeded log and snapshot set clusterctl reads.
type offlineInputs struct {
	log      *weblog.Log
	coll     *bgpsim.Collection
	universe *bgp.Snapshot // every BGP view entry, the churn universe
	merged   *bgp.Merged
	logPath  string
	onePath  string // the log's first request alone: the set-up run
	tables   []string
	requests int
}

func makeOfflineInputs(e *env) (*offlineInputs, error) {
	w, err := newServedWorld(e.seed, offlineASes)
	if err != nil {
		return nil, err
	}
	in := &offlineInputs{coll: w.coll, merged: w.merged(), universe: w.universe}
	dir := filepath.Join(e.work, "tables")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range append(append([]*bgp.Snapshot(nil), w.coll.Views...), w.coll.Registries...) {
		path := filepath.Join(dir, strings.ToLower(strings.ReplaceAll(s.Name, "&", ""))+".txt")
		if err := writeWith(path, func(w *bufio.Writer) error { return bgp.WriteSnapshot(w, s, bgp.FormatCIDR) }); err != nil {
			return nil, err
		}
		in.tables = append(in.tables, path)
	}
	lcfg := weblog.Nagano(offlineScale)
	lcfg.Seed = e.seed
	if in.log, err = weblog.Generate(w.world, lcfg); err != nil {
		return nil, err
	}
	in.logPath = filepath.Join(e.work, "access.log")
	if err := writeWith(in.logPath, func(w *bufio.Writer) error { return weblog.WriteCLF(w, in.log) }); err != nil {
		return nil, err
	}
	one := *in.log
	one.Requests = in.log.Requests[:1]
	in.onePath = filepath.Join(e.work, "one.log")
	if err := writeWith(in.onePath, func(w *bufio.Writer) error { return weblog.WriteCLF(w, &one) }); err != nil {
		return nil, err
	}
	for _, r := range in.log.Requests {
		if !r.Client.IsUnspecified() {
			in.requests++
		}
	}
	return in, nil
}

func writeWith(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ctlRun is one finished clusterctl invocation.
type ctlRun struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // KiB, the kernel's peak RSS of the process
	stdout []byte
}

func (in *offlineInputs) clusterctl(ctx context.Context, e *env, logPath string, extra ...string) (*ctlRun, error) {
	args := []string{"-log", logPath, "-threshold", strconv.FormatFloat(offlineThreshold, 'f', -1, 64), "-top", "1000000"}
	for _, t := range in.tables {
		args = append(args, "-table", t)
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "clusterctl"), append(args, extra...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	out, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("clusterctl: %v: %s", err, stderr.String())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return &ctlRun{
		wall:   wall,
		cpu:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		maxRSS: ru.Maxrss,
		stdout: out,
	}, nil
}

// busyRow is one line of the busy-cluster table.
type busyRow struct {
	prefix                  string
	clients, requests, urls int
	bytes                   int64
}

// offlineAnswer is what clusterctl's report says, or what the reference
// computes.
type offlineAnswer struct {
	clusters    int
	unclustered int
	busy        []busyRow
}

var (
	reClusters = regexp.MustCompile(`^clusters: ([\d,]+) \(.* coverage, ([\d,]+) unclustered clients\)`)
	reBusy     = regexp.MustCompile(`^busy clusters covering .*: ([\d,]+) \(`)
)

func atoi(s string) int {
	n, err := strconv.Atoi(strings.ReplaceAll(s, ",", ""))
	if err != nil {
		return -1
	}
	return n
}

// parseReport reads clusterctl's stdout: the cluster count line, the
// busy-cluster count and every row of the busy table.
func parseReport(out []byte) (offlineAnswer, error) {
	var a offlineAnswer
	busy := -1
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		if m := reClusters.FindStringSubmatch(line); m != nil {
			a.clusters, a.unclustered = atoi(m[1]), atoi(m[2])
			continue
		}
		if m := reBusy.FindStringSubmatch(line); m != nil {
			busy = atoi(m[1])
			continue
		}
		if strings.HasPrefix(line, "----") {
			inTable = true
			continue
		}
		f := strings.Fields(line)
		if !inTable || len(f) != 5 {
			continue
		}
		a.busy = append(a.busy, busyRow{f[0], atoi(f[1]), atoi(f[2]), atoi(f[3]), int64(atoi(f[4]))})
	}
	if busy < 0 || busy != len(a.busy) {
		return a, fmt.Errorf("clusterctl report: busy count %d, %d table rows", busy, len(a.busy))
	}
	return a, nil
}

// referenceAnswer clusters the in-memory log with bgp.Merged.Lookup and
// applies the paper's busy-cluster cut, independently of the cluster
// package: per-prefix client, request, URL and byte totals; busiest
// first (requests, then clients, then prefix order) until the cut
// covers the threshold share of clustered requests.
func referenceAnswer(l *weblog.Log, m *bgp.Merged, threshold float64) offlineAnswer {
	type agg struct {
		prefix   netutil.Prefix
		clients  map[netutil.Addr]struct{}
		urls     map[int32]struct{}
		requests int
		bytes    int64
	}
	byPrefix := make(map[netutil.Prefix]*agg)
	owner := make(map[netutil.Addr]*agg)
	unclustered := make(map[netutil.Addr]bool)
	for _, r := range l.Requests {
		if r.Client.IsUnspecified() || unclustered[r.Client] {
			continue
		}
		g, seen := owner[r.Client]
		if !seen {
			mt, ok := m.Lookup(r.Client)
			if !ok {
				unclustered[r.Client] = true
				continue
			}
			if g = byPrefix[mt.Prefix]; g == nil {
				g = &agg{prefix: mt.Prefix, clients: map[netutil.Addr]struct{}{}, urls: map[int32]struct{}{}}
				byPrefix[mt.Prefix] = g
			}
			owner[r.Client] = g
		}
		g.clients[r.Client] = struct{}{}
		g.urls[r.URL] = struct{}{}
		g.requests++
		g.bytes += int64(l.Resources[r.URL].Size)
	}
	all := make([]*agg, 0, len(byPrefix))
	total := 0
	for _, g := range byPrefix {
		all = append(all, g)
		total += g.requests
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.requests != b.requests {
			return a.requests > b.requests
		}
		if len(a.clients) != len(b.clients) {
			return len(a.clients) > len(b.clients)
		}
		return netutil.ComparePrefix(a.prefix, b.prefix) < 0
	})
	ans := offlineAnswer{clusters: len(all), unclustered: len(unclustered)}
	target := int(threshold * float64(total))
	covered := 0
	for i, g := range all {
		if covered >= target && i > 0 {
			break
		}
		covered += g.requests
		ans.busy = append(ans.busy, busyRow{g.prefix.String(), len(g.clients), g.requests, len(g.urls), g.bytes})
	}
	return ans
}

func (a offlineAnswer) diff(want offlineAnswer) error {
	if a.clusters != want.clusters || a.unclustered != want.unclustered {
		return fmt.Errorf("%d clusters, %d unclustered clients; reference %d, %d", a.clusters, a.unclustered, want.clusters, want.unclustered)
	}
	if len(a.busy) != len(want.busy) {
		return fmt.Errorf("%d busy clusters; reference %d", len(a.busy), len(want.busy))
	}
	for i := range a.busy {
		if a.busy[i] != want.busy[i] {
			return fmt.Errorf("busy cluster %d: %+v; reference %+v", i, a.busy[i], want.busy[i])
		}
	}
	return nil
}

// runOffline runs offline-log: clusterctl over the seeded log, pass after
// pass for --seconds, each pass's report checked against the reference.
func runOffline(ctx context.Context, e *env) (*result, error) {
	in, err := makeOfflineInputs(e)
	if err != nil {
		return nil, err
	}
	want := referenceAnswer(in.log, in.merged, offlineThreshold)
	logf("offline-log: %d requests, %d table files; reference: %d clusters, %d busy",
		in.requests, len(in.tables), want.clusters, len(want.busy))

	if e.trace {
		return runOfflineTraced(ctx, e, in, want)
	}

	// Warm the page cache with one unmeasured pass, then measure whole
	// passes until --seconds is spent (at least three), sampling the
	// host's speed after each (see speedProbe) and setting up
	// setupsPerPass times, so that setup_s samples the host's state over
	// the whole run. The metrics are calm medians (see calmMedian).
	if _, err := in.clusterctl(ctx, e, in.logPath); err != nil {
		return nil, err
	}
	type pass struct{ wall, cpu, steal, rss float64 }
	var passes []pass
	var setups, setupSteals []float64
	res := &result{}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(passes) < 3 || time.Now().Before(deadline) {
		total0, steal0 := hostCPU()
		r, err := in.clusterctl(ctx, e, in.logPath)
		if err != nil {
			return nil, err
		}
		steal := stealShare(total0, steal0)
		e.speed.sample(2)
		res.Attempted++
		got, err := parseReport(r.stdout)
		if err == nil {
			err = got.diff(want)
		}
		if err != nil {
			logf("offline-log: pass %d disagrees with the reference: %v", res.Attempted, err)
			res.Failed++
		}
		passes = append(passes, pass{netOfSteal(r.wall.Seconds(), steal), r.cpu.Seconds(), steal, float64(r.maxRSS) / 1024})
		for i := 0; i < setupsPerPass; i++ {
			total0, steal0 := hostCPU()
			r, err := in.clusterctl(ctx, e, in.onePath)
			if err != nil {
				return nil, err
			}
			steal := stealShare(total0, steal0)
			setups = append(setups, netOfSteal(r.wall.Seconds(), steal))
			setupSteals = append(setupSteals, steal)
		}
	}
	setupS := calmMedian(setups, setupSteals)
	var walls, rates, cpus, rss, passSteals []float64
	for _, p := range passes {
		walls = append(walls, p.wall*1000)
		rates = append(rates, float64(in.requests)/(p.wall-setupS))
		cpus = append(cpus, p.cpu*1e6/float64(in.requests))
		rss = append(rss, p.rss)
		passSteals = append(passSteals, p.steal)
	}
	logf("offline-log: set-up %.3fs (calm median of %.3f); %d passes (wall s, cpu s, steal, MiB): %.4v",
		setupS, setups, len(passes), passes)
	res.Correct = res.Failed == 0
	res.setSpeedBound("setup_s", setupS, "s", 1)
	// The schema asks every end-to-end metric of every workload. A pass
	// is the unit of work an analyst waits for, so the latency is the pass
	// wall time; each log request is one client address clustered, so the
	// capacity is requests clustered per second of a pass less its set-up.
	res.setSpeedBound("latency_p50_ms", calmMedian(walls, passSteals), "ms", 1)
	res.setSpeedBound("capacity_addrs_per_s", calmMedian(rates, passSteals), "addr/s", -1)
	res.setSpeedBound("cpu_us_per_op", calmMedian(cpus, passSteals), "us", 1)
	res.set("peak_rss_mb", median(rss), "MiB")
	return res, nil
}
