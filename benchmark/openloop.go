package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

// batch is one pre-generated POST /cluster request: the body is built
// during input generation, so the dispatch path only writes bytes.
type batch struct {
	addrs []netutil.Addr
	body  []byte
}

// loadClient is the driver's only load transport: at most conns HTTP
// connections, each dial counted.
type loadClient struct {
	client *http.Client
	conns  int
	dials  atomic.Int64
}

func newLoadClient(conns int) *loadClient {
	lc := &loadClient{conns: conns}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	lc.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				lc.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return lc
}

// sample is one batch of an open-loop phase. Times are offsets from the
// phase start; latency runs from the intended send time, so a stall is
// charged to every batch queued behind it (coordinated omission).
type sample struct {
	batch    int // index into the pre-generated batches
	intended time.Duration
	sent     time.Duration
	done     time.Duration
	status   int
	err      error
	body     []byte // raw response, decoded and checked after the phase
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

func (s *sample) latencyMS() float64 {
	if !s.ok() {
		return math.Inf(1) // a failed batch misses every latency limit
	}
	return float64(s.done-s.intended) / float64(time.Millisecond)
}

func (s *sample) latenessMS() float64 { return float64(s.sent-s.intended) / float64(time.Millisecond) }

// phase is one fixed-rate open-loop run.
type phase struct {
	samples []sample
	wall    time.Duration // first intended send to last response byte
	steal   float64       // share of host CPU time the hypervisor stole meanwhile
	// sliceSteal[i] is the steal share over [i, i+1) * sliceLen of the
	// phase, so samples due in a contended slice can be told apart.
	sliceSteal []float64
}

// sliceLen is the granularity of a phase's steal record: 2 jiffies of
// each CPU at USER_HZ 100. A neighbour's steal comes in bursts, so even
// while the host loses 5-15% of its time many slices lose none; at
// 100 ms and 250 ms, fewer did, and the calm p50 spread wider.
const sliceLen = 20 * time.Millisecond

// disturbance is the largest steal share the host saw in a slice from
// the one before s was due to the one its last byte arrived in (a stall
// late in one slice delays the batches queued into the next). A span
// past the steal record counts as fully disturbed.
func (ph *phase) disturbance(s *sample) float64 {
	first := int(s.intended/sliceLen) - 1
	if first < 0 {
		first = 0
	}
	last := int(s.done / sliceLen)
	if last >= len(ph.sliceSteal) {
		return 1
	}
	worst := 0.0
	for _, st := range ph.sliceSteal[first : last+1] {
		worst = math.Max(worst, st)
	}
	return worst
}

// scoredSample is a sample with its disturbance.
type scoredSample struct {
	steal float64
	s     sample
}

// scored pairs each of the phase's samples with its disturbance.
func (ph *phase) scored() []scoredSample {
	out := make([]scoredSample, len(ph.samples))
	for i := range ph.samples {
		out[i] = scoredSample{ph.disturbance(&ph.samples[i]), ph.samples[i]}
	}
	return out
}

// calmest returns the samples whose disturbance was at most max and, if
// they number fewer than want, the least disturbed others until they do.
func calmest(ss []scoredSample, max float64, want int) []sample {
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].steal < ss[j].steal })
	var out []sample
	for _, sc := range ss {
		if sc.steal > max && len(out) >= want {
			break
		}
		out = append(out, sc.s)
	}
	return out
}

// phaseOptions selects what a phase does besides sending.
type phaseOptions struct {
	// traceRoot, when set, wraps every batch in a driver span and sends
	// its context on the X-Netcluster-Trace header, so the servers'
	// spans join the benchmark's trace.
	traceRoot string
}

// runPhase offers batches (cycled from first) at rate addresses per
// second for dur. Send times are fixed by the rate alone: batch i is due
// at start + i*interval whatever happened to batch i-1. The conns
// senders each own one connection; a batch whose senders are all busy
// waits, and that wait shows as lateness.
func (lc *loadClient) runPhase(ctx context.Context, url string, batches []batch, first int, rate float64, dur time.Duration, opt phaseOptions) *phase {
	per := float64(len(batches[0].addrs))
	n := int(math.Round(dur.Seconds() * rate / per))
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) * per / rate)
	ph := &phase{samples: make([]sample, n)}
	// No driver GC while sending: a collection would stall the senders
	// and charge the pause to the system as lateness. The phase's garbage
	// (mostly response bodies) is collected once it ends.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	total0, steal0 := hostCPU()
	start := time.Now().Add(2 * time.Millisecond)
	stop := make(chan struct{})
	sliced := make(chan []float64)
	go func() { sliced <- recordSteal(start, stop) }()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := &ph.samples[i]
				s.batch = (first + i) % len(batches)
				s.intended = due.Sub(start)
				lc.send(ctx, url, batches[s.batch].body, s, start, &buf, opt)
			}
		}()
	}
	wg.Wait()
	close(stop)
	ph.sliceSteal = <-sliced
	ph.steal = stealShare(total0, steal0)
	for i := range ph.samples {
		if d := ph.samples[i].done; d > ph.wall {
			ph.wall = d
		}
	}
	return ph
}

// saturate sends batches (cycled from first) back to back for dur: each
// of the conns senders posts its next batch as soon as its last answer
// is in. It is closed loop on purpose, to find the highest rate the
// system answers with the driver on the same host; latency and lateness
// of its samples mean nothing.
func (lc *loadClient) saturate(ctx context.Context, url string, batches []batch, first int, dur time.Duration) *phase {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	total0, steal0 := hostCPU()
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	per := make([][]sample, lc.conns)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(end) {
				s := sample{batch: (first + int(next.Add(1)-1)) % len(batches)}
				s.intended = time.Since(start)
				lc.send(ctx, url, batches[s.batch].body, &s, start, &buf, phaseOptions{})
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	ph := &phase{steal: stealShare(total0, steal0)}
	for _, ss := range per {
		ph.samples = append(ph.samples, ss...)
	}
	for i := range ph.samples {
		if d := ph.samples[i].done; d > ph.wall {
			ph.wall = d
		}
	}
	return ph
}

// recordSteal samples the host's steal share every sliceLen from
// start until stop is closed.
func recordSteal(start time.Time, stop <-chan struct{}) []float64 {
	var out []float64
	time.Sleep(time.Until(start))
	t, st := hostCPU()
	tick := time.NewTicker(sliceLen)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			out = append(out, stealShare(t, st))
			t, st = hostCPU()
		}
	}
}

// send posts one batch and reads the whole answer into buf, keeping an
// exact-size copy for the checks after the phase.
func (lc *loadClient) send(ctx context.Context, url string, body []byte, s *sample, start time.Time, buf *bytes.Buffer, opt phaseOptions) {
	var span *obsv.TSpan
	if opt.traceRoot != "" {
		ctx, span = obsv.StartTraceSpan(ctx, opt.traceRoot)
		defer span.End()
	}
	s.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "text/plain")
	if span != nil {
		obsv.HTTPInject(ctx, req.Header)
	}
	resp, err := lc.client.Do(req)
	if err != nil {
		s.err = err
		s.done = time.Since(start)
		span.Fail(err)
		return
	}
	buf.Reset()
	_, s.err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.body = append([]byte(nil), buf.Bytes()...)
	s.status = resp.StatusCode
	if s.status != http.StatusOK {
		span.Fail(fmt.Errorf("status %d", s.status))
	}
}

// phaseStats summarizes a phase for the metrics.
type phaseStats struct {
	samples   int
	okBatches int
	failed    int     // transport errors and non-2xx (503s included)
	rejected  int     // 503s alone
	p50, p99  float64 // intended-time latency, ms
	beyondP99 int     // samples above p99
	lateP99   float64 // send lateness, ms
}

func (ph *phase) stats() phaseStats { return statsOf(ph.samples) }

func statsOf(samples []sample) phaseStats {
	st := phaseStats{samples: len(samples)}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i := range samples {
		s := &samples[i]
		lat[i] = s.latencyMS()
		late[i] = s.latenessMS()
		if s.ok() {
			st.okBatches++
		} else {
			st.failed++
		}
		if s.status == http.StatusServiceUnavailable {
			st.rejected++
		}
	}
	st.p50 = quantile(lat, 0.5)
	st.p99 = quantile(lat, 0.99)
	st.beyondP99 = beyond(lat, st.p99)
	st.lateP99 = quantile(late, 0.99)
	return st
}
