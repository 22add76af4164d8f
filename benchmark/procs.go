package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one launched system process. The benchmark reads it only from
// outside: its HTTP surface and /proc.
type proc struct {
	name    string // role, e.g. "clusterd-f0"
	kind    string // binary name, e.g. "clusterd"
	cmd     *exec.Cmd
	base    string // http://host:port once it announced its listener
	exited  chan struct{}
	waitErr error
}

// procSet owns every process a run starts, so no error path leaks one.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// controlClient carries readiness probes and metric scrapes. It is kept
// apart from the load transport so driver.conns_opened counts only the
// load connections.
var controlClient = &http.Client{Timeout: 5 * time.Second}

// start launches bin with args, its stderr captured to a log file in
// dir, and waits until it announces "serving on http://...".
func (ps *procSet) start(ctx context.Context, binDir, dir, kind, name string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(binDir, kind), args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Dir = dir
	// Should the driver die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logFile, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	cmd.Stdout = logFile
	p := &proc{name: name, kind: kind, cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	announced := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				select {
				case announced <- strings.Fields(line[i+len("serving on "):])[0]:
				default:
				}
			}
		}
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()
	select {
	case base := <-announced:
		p.base = base
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before serving: %v (see %s.log)", name, p.waitErr, name)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("%s did not announce its listener within 60s", name)
	}
}

// stop asks p to drain (SIGTERM) and waits for it, killing it after a
// grace period.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// stopAll stops every process still running, newest first (the router
// before its shards, followers before the feed they poll).
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
}

// remove stops p and forgets it.
func (ps *procSet) remove(p *proc) {
	p.stop()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.procs {
		if q == p {
			ps.procs = append(ps.procs[:i], ps.procs[i+1:]...)
			break
		}
	}
}

// readyz polls p's /readyz once; gen is the table generation clusterd
// reports (routers report none: ok only).
func (p *proc) readyz(ctx context.Context) (ok bool, gen uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
	if err != nil {
		return false, 0, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return false, 0, nil // not accepting yet
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, 0, nil
	}
	if p.kind == "clusterd" {
		var r struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return false, 0, fmt.Errorf("%s /readyz: %w", p.name, err)
		}
		gen = r.Generation
	}
	return true, gen, nil
}

// getJSON scrapes one JSON document from p.
func (p *proc) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", p.name, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", p.name, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getBytes fetches one document from p as raw bytes.
func (p *proc) getBytes(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", p.name, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", p.name, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// procSample is one outside-in reading of a process.
type procSample struct {
	cpu   time.Duration // user+sys since start, /proc/<pid>/stat
	hwmKB int64         // VmHWM, /proc/<pid>/status
	mem   memStats      // runtime.MemStats subset, /debug/vars
}

// memStats is the part of /debug/vars "memstats" the benchmark uses.
type memStats struct {
	TotalAlloc   uint64
	Mallocs      uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// clkTck is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clkTck = 100

func (p *proc) sample(ctx context.Context) (procSample, error) {
	var s procSample
	pid := p.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+2:]))
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("%s: bad /proc stat line", p.name)
	}
	s.cpu = time.Duration(utime+stime) * time.Second / clkTck
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			s.hwmKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := p.getJSON(ctx, "/debug/vars", &vars); err != nil {
		return s, err
	}
	s.mem = vars.Memstats
	return s, nil
}

// sampleAll reads every process in procs.
func sampleAll(ctx context.Context, procs []*proc) ([]procSample, error) {
	out := make([]procSample, len(procs))
	for i, p := range procs {
		s, err := p.sample(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// hostCPU is the machine-wide /proc/stat "cpu" line: all jiffies and
// the steal among them (time the hypervisor ran someone else while this
// guest's CPUs wanted to run).
func hostCPU() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of the host's CPU time the hypervisor stole
// since hostCPU returned total0 and steal0.
func stealShare(total0, steal0 uint64) float64 {
	total, steal := hostCPU()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// hostInfo is the fingerprint written with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q go=%s kernel=%s GOMAXPROCS=%d",
		h.NProc, h.CPUModel, h.GoVersion, h.Kernel, h.GOMAXPROCS)
}

func hostFingerprint() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				h.CPUModel = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
