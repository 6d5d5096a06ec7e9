package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

	"rlpm/internal/obs"
	"rlpm/internal/serve"
)

// server is one child process (pmserve or pmrouter) started with
// 127.0.0.1:0 listeners; its addresses are read from the lines it prints
// on stderr.
type server struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string

	mu  sync.Mutex
	log []byte // stderr tail, for error reports

	ready      chan struct{} // closed once both addresses are known
	stderrDone chan struct{} // closed at stderr EOF (the process exited)
}

const logTail = 16 << 10

func startServer(name, bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, args...)
	// Children die with the benchmark even if it is killed outright. The
	// pacer unlocks its OS thread before returning, so no thread that forked
	// a child ever exits early.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, ready: make(chan struct{}), stderrDone: make(chan struct{})}
	go s.readStderr(stderr)
	select {
	case <-s.ready:
		return s, nil
	case <-s.stderrDone:
	case <-time.After(30 * time.Second):
	}
	_ = s.stop() // the failed start-up, with the log, is the error to report
	return nil, fmt.Errorf("%s did not come up:\n%s", name, s.logText())
}

func (s *server) readStderr(r io.Reader) {
	defer close(s.stderrDone)
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.log = append(s.log, line...)
		s.log = append(s.log, '\n')
		if len(s.log) > logTail {
			s.log = append(s.log[:0], s.log[len(s.log)-logTail:]...)
		}
		s.mu.Unlock()
		if announced {
			continue
		}
		if _, a, ok := strings.Cut(line, " on http://"); ok {
			s.httpAddr, _, _ = strings.Cut(a, " ")
		}
		if _, a, ok := strings.Cut(line, "binary protocol on "); ok {
			s.binAddr = strings.TrimSpace(a)
		}
		if s.httpAddr != "" && s.binAddr != "" {
			announced = true
			close(s.ready)
		}
	}
	// Keep draining after the scanner gives up on an over-long line, so
	// the child never blocks writing to a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.log)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM — pmserve and pmrouter drain and exit 0 — and waits
// for the process; one that has not exited after 15 s is killed and
// reported.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	killed := false
	select {
	case <-s.stderrDone:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		killed = true
		<-s.stderrDone
	}
	err := s.cmd.Wait()
	switch {
	case killed:
		return fmt.Errorf("%s ignored SIGTERM for 15 s and was killed:\n%s", s.name, s.logText())
	case err != nil:
		return fmt.Errorf("%s exited with %v:\n%s", s.name, err, s.logText())
	}
	return nil
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clkTck = 100

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14, utime
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15, stime
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procHWM returns the process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// deployment is one workload's server topology plus the generator's
// clients: one BinClient per endpoint (it multiplexes every session on
// one connection), or one JSON client capped at nproc connections.
type deployment struct {
	servers []*server // pmserve shards first, then pmrouter if any
	shards  []*server
	bin     *serve.BinClient
	json    *serve.Client
	scrape  *http.Client
}

const callTimeout = 5 * time.Second

func deploy(cfg *runConfig) (dp *deployment, err error) {
	dp = &deployment{scrape: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}}
	defer func() {
		if err != nil {
			err = errors.Join(err, dp.stop())
			dp = nil
		}
	}()
	nShards := max(cfg.spec.Shards, 1)
	for i := 0; i < nShards; i++ {
		// Each process gets its own copy: a draining pmserve writes its
		// final checkpoint back, and a learning one writes learned tables.
		ckpt, err := copyCheckpoint(cfg.checkpoint, cfg.workDir)
		if err != nil {
			return dp, err
		}
		args := []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0",
			"-checkpoint", ckpt, "-epoch", strconv.Itoa(i + 1)}
		if cfg.spec.Learn {
			args = append(args, "-learn")
		}
		s, err := startServer(fmt.Sprintf("pmserve#%d", i), filepath.Join(cfg.binDir, "pmserve"), args...)
		if err != nil {
			return dp, err
		}
		dp.servers = append(dp.servers, s)
		dp.shards = append(dp.shards, s)
	}
	front := dp.shards[0]
	if cfg.spec.Shards > 0 {
		args := []string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0"}
		for i, s := range dp.shards {
			args = append(args, "-shard", fmt.Sprintf("s%d=%s@%s", i, s.binAddr, s.httpAddr))
		}
		r, err := startServer("pmrouter", filepath.Join(cfg.binDir, "pmrouter"), args...)
		if err != nil {
			return dp, err
		}
		dp.servers = append(dp.servers, r)
		front = r
	}
	switch cfg.spec.Proto {
	case "bin":
		dp.bin = serve.NewBinClient(front.binAddr)
		dp.bin.SetCallTimeout(callTimeout)
		dp.bin.SetRetryBudget(callTimeout)
	case "json":
		dp.json = serve.NewClient("http://" + front.httpAddr)
		n := runtime.NumCPU()
		dp.json.SetTransport(&http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n})
		dp.json.SetCallTimeout(callTimeout)
		dp.json.SetRetryBudget(callTimeout)
	default:
		return dp, fmt.Errorf("unknown protocol %q", cfg.spec.Proto)
	}
	return dp, nil
}

// openSessions opens every device's session through the deployment's
// client, 64 at a time, and returns the mean open latency.
func (dp *deployment) openSessions(ctx context.Context, devs []*device) (time.Duration, error) {
	var (
		mu    sync.Mutex
		total time.Duration
		first error
		wg    sync.WaitGroup
	)
	next := make(chan *device)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				t0 := time.Now()
				err := dp.open(ctx, d)
				el := time.Since(t0)
				mu.Lock()
				total += el
				if err != nil && first == nil {
					first = fmt.Errorf("opening device %d's session: %w", d.idx, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, d := range devs {
		next <- d
	}
	close(next)
	wg.Wait()
	return total / time.Duration(len(devs)), first
}

func (dp *deployment) open(ctx context.Context, d *device) error {
	if dp.bin != nil {
		s, err := dp.bin.OpenSession(ctx, d.opts)
		if err != nil {
			return err
		}
		if s.NumClusters() != d.n {
			return fmt.Errorf("server serves %d clusters, device has %d", s.NumClusters(), d.n)
		}
		d.decide, d.reward = s.DecideMany, s.Reward
		d.handles = append(d.handles, s.ID)
	} else {
		s, err := dp.json.CreateSession(ctx, d.opts)
		if err != nil {
			return err
		}
		if s.NumClusters() != d.n {
			return fmt.Errorf("server serves %d clusters, device has %d", s.NumClusters(), d.n)
		}
		if d.k != 1 {
			return fmt.Errorf("json sessions decide one period per call, workload wants %d", d.k)
		}
		d.decide, d.reward = s.Decide, s.Reward
		d.handles = append(d.handles, s.ID)
	}
	if d.rec != nil {
		d.rec.starts = append(d.rec.starts, len(d.rec.levels)/(d.k*d.n))
	}
	return nil
}

// stop closes the clients, then stops the router before the shards so no
// forward hits a stopped shard.
func (dp *deployment) stop() error {
	if dp.bin != nil {
		dp.bin.Close()
	}
	if dp.json != nil {
		dp.json.CloseIdleConnections()
	}
	var errs []error
	for i := len(dp.servers) - 1; i >= 0; i-- {
		errs = append(errs, dp.servers[i].stop())
	}
	dp.scrape.CloseIdleConnections()
	return errors.Join(errs...)
}

// scrapeShards reads every pmserve's registry snapshot (GET /debug/obs).
func (dp *deployment) scrapeShards(ctx context.Context) ([]obs.RegistrySnapshot, error) {
	out := make([]obs.RegistrySnapshot, len(dp.shards))
	for i, s := range dp.shards {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.httpAddr+"/debug/obs", nil)
		if err != nil {
			return nil, err
		}
		resp, err := dp.scrape.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", s.name, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", s.name, err)
		}
	}
	return out, nil
}

// observe runs fn and adds the shards' registry change over it to into.
func (dp *deployment) observe(ctx context.Context, into *obs.RegistrySnapshot, fn func()) error {
	before, err := dp.scrapeShards(ctx)
	if err != nil {
		return err
	}
	fn()
	after, err := dp.scrapeShards(ctx)
	if err != nil {
		return err
	}
	d, err := fleetDelta(after, before)
	if err != nil {
		return err
	}
	return into.Merge(d)
}

// cpu sums the CPU time of the given processes.
func cpu(ss []*server) (time.Duration, error) {
	var total time.Duration
	for _, s := range ss {
		c, err := procCPU(s.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func copyCheckpoint(src, dir string) (string, error) {
	raw, err := os.ReadFile(src)
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, "shard-*.ckpt")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
