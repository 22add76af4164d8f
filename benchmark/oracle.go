package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/shard"
	"github.com/netaware/netcluster/internal/weblog"
)

// servedWorld is the seeded input every serving process builds for
// itself from -ases and -seed; the benchmark rebuilds it the same way
// clusterd does, so the oracle and the system start from one table.
type servedWorld struct {
	world    *inet.Internet
	coll     *bgpsim.Collection
	universe *bgp.Snapshot // clusterd's churn universe: every BGP view entry
}

func newServedWorld(seed int64, ases int) (*servedWorld, error) {
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = ases
	wcfg.Seed = seed
	world, err := inet.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	scfg := bgpsim.DefaultConfig()
	scfg.Seed = seed
	coll := bgpsim.New(world, scfg).Collect()
	universe := &bgp.Snapshot{Name: "bgpsim-churn", Kind: bgp.SourceBGP}
	for _, v := range coll.Views {
		universe.Entries = append(universe.Entries, v.Entries...)
	}
	return &servedWorld{world: world, coll: coll, universe: universe}, nil
}

// merged returns a fresh generation-0 reference table.
func (w *servedWorld) merged() *bgp.Merged { return bgpsim.Merge(w.coll) }

// churnConfig is clusterd's synthetic churn schedule for -seed (the
// -mean-batch and -burstiness defaults).
func churnConfig(seed int64) bgpsim.ChurnConfig {
	c := bgpsim.DefaultChurnConfig()
	c.Seed = seed
	c.MeanBatch = 32
	c.Burstiness = 0.15
	return c
}

// makeBatches draws the client addresses of a Nagano-profile stream
// and renders them as newline-separated POST /cluster bodies.
func makeBatches(world *inet.Internet, seed int64, n, size int) ([]batch, error) {
	cfg := weblog.Nagano(0.01)
	cfg.Seed = seed
	g, err := weblog.NewStreamGen(world, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]batch, n)
	for i := range out {
		b := batch{addrs: make([]netutil.Addr, size)}
		for j := range b.addrs {
			b.addrs[j] = g.Next().Client
			b.body = append(b.addrs[j].Append(b.body), '\n')
		}
		out[i] = b
	}
	return out, nil
}

// row is one served answer, decoded off the timed path and kept compact
// until the oracle runs.
type row struct {
	addr      netutil.Addr
	gen       uint64
	prefix    netutil.Prefix // zero when unclustered
	kind      bgp.SourceKind
	clustered bool
	sample    int32 // index into the run's sample list
}

// kindByName maps the wire's kind strings back to source kinds.
var kindByName = map[string]bgp.SourceKind{
	bgp.SourceBGP.String():         bgp.SourceBGP,
	bgp.SourceNetworkDump.String(): bgp.SourceNetworkDump,
}

// decodeRows parses one response body into rows. A row whose address,
// prefix or kind does not parse, that arrives out of input order or that
// a degraded router could not answer is wrong on its face: decodeRows
// returns false and the batch is failed without consulting the oracle.
func decodeRows(body []byte, addrs []netutil.Addr, routed bool, ref int32, dst []row) ([]row, bool) {
	var results []shard.LookupResult
	if routed {
		var r shard.RouterBatchResponse
		if err := json.Unmarshal(body, &r); err != nil || len(r.Degradation) > 0 {
			return dst, false
		}
		results = make([]shard.LookupResult, len(r.Results))
		for i, rr := range r.Results {
			if rr.Error != "" {
				return dst, false
			}
			results[i] = rr.LookupResult
		}
	} else {
		var r shard.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return dst, false
		}
		results = r.Results
	}
	if len(results) != len(addrs) {
		return dst, false
	}
	for i, res := range results {
		a, err := netutil.ParseAddr(res.Addr)
		if err != nil || a != addrs[i] {
			return dst, false
		}
		rw := row{addr: a, gen: res.Generation, clustered: res.Clustered, sample: ref}
		if res.Clustered {
			p, err := netutil.ParsePrefix(res.Prefix)
			k, ok := kindByName[res.Kind]
			if err != nil || !ok || p.String() != res.Prefix {
				return dst, false
			}
			rw.prefix, rw.kind = p, k
		} else if res.Prefix != "" || res.Kind != "" {
			return dst, false
		}
		dst = append(dst, rw)
	}
	return dst, true
}

// agrees reports whether r is the answer ref gives for r.addr.
func agrees(ref *bgp.Merged, r *row) bool {
	m, ok := ref.Lookup(r.addr)
	if ok != r.clustered {
		return false
	}
	return !ok || (m.Prefix == r.prefix && m.Kind == r.kind)
}

// checkResult is the oracle's verdict over a run's rows.
type checkResult struct {
	wrong      map[int32]bool // samples with at least one wrong row
	wrongRows  int
	mislabeled int // wrong at their label, right one generation earlier
	maxGen     uint64
}

// checkRows judges every row at the generation it reports. Generation g
// is the seeded table after the first g deltas of clusterd's churn
// schedule; churn replays that schedule into a fresh bgp.Merged per
// generation. With churn nil every row must report generation 0.
func checkRows(rows []row, w *servedWorld, churn *bgpsim.ChurnGen) (checkResult, error) {
	cr := checkResult{wrong: make(map[int32]bool)}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].gen < rows[j].gen })
	replay := newReplay(w)
	cur := w.merged()
	var prev *bgp.Merged
	for i := range rows {
		r := &rows[i]
		if r.gen > cr.maxGen {
			cr.maxGen = r.gen
		}
		if r.gen != replay.gen {
			if churn == nil {
				return cr, fmt.Errorf("static table answered at generation %d", r.gen)
			}
			for replay.gen < r.gen-1 {
				replay.apply(churn.Next())
			}
			prev = replay.merged()
			replay.apply(churn.Next())
			cur = replay.merged()
		}
		if agrees(cur, r) {
			continue
		}
		cr.wrongRows++
		cr.wrong[r.sample] = true
		if prev != nil && agrees(prev, r) {
			cr.mislabeled++
		}
	}
	return cr, nil
}

// replay is the churned table as prefix sets, one per source class, so
// each generation's reference is rebuilt from scratch rather than patched
// by the incremental compiler under test.
type replay struct {
	gen       uint64
	primary   map[netutil.Prefix]bgp.Entry
	secondary map[netutil.Prefix]bgp.Entry
}

func newReplay(w *servedWorld) *replay {
	r := &replay{primary: make(map[netutil.Prefix]bgp.Entry), secondary: make(map[netutil.Prefix]bgp.Entry)}
	for _, v := range w.coll.Views {
		for _, e := range v.Entries {
			r.primary[e.Prefix] = e
		}
	}
	for _, s := range w.coll.Registries {
		for _, e := range s.Entries {
			r.secondary[e.Prefix] = e
		}
	}
	return r
}

func (r *replay) apply(d bgp.Delta) {
	for _, op := range d.Ops {
		set := r.primary
		if op.Kind == bgp.SourceNetworkDump {
			set = r.secondary
		}
		if op.Withdraw {
			delete(set, op.Entry.Prefix)
		} else {
			set[op.Entry.Prefix] = op.Entry
		}
	}
	r.gen++
}

func (r *replay) merged() *bgp.Merged {
	m := bgp.NewMerged()
	for _, c := range []struct {
		set  map[netutil.Prefix]bgp.Entry
		kind bgp.SourceKind
	}{{r.primary, bgp.SourceBGP}, {r.secondary, bgp.SourceNetworkDump}} {
		s := &bgp.Snapshot{Name: c.kind.String(), Kind: c.kind}
		for _, e := range c.set {
			s.Entries = append(s.Entries, e)
		}
		m.Add(s)
	}
	return m
}
