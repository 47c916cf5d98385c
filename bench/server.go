package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is a running moqod the workloads drive: a child process in the
// benchmark proper, an in-process httptest server in the smoke test.
type server interface {
	// Base is the node's URL, e.g. "http://127.0.0.1:40123".
	Base() string
	// PID is the process whose /proc entries account for the node's CPU
	// time and memory.
	PID() int
	// ReadyMS is the time from spawn to the first 200 of /readyz.
	ReadyMS() float64
	// Stop retires the node the way SIGTERM does (drain, flush, exit) and
	// returns how long that took.
	Stop() (drainMS float64, err error)
}

// nodeConfig is how a workload wants its moqod started.
type nodeConfig struct {
	// CacheDir is the snapshot store's directory; empty runs without one.
	CacheDir string
	// NoCache disables the warm-start cache (moqod -cache -1).
	NoCache bool
}

// launcher boots a node.
type launcher func(ctx context.Context, node nodeConfig, rec *recorder) (server, error)

const (
	// stopGrace is how long a child gets to exit after SIGTERM before it
	// is killed.
	stopGrace = 10 * time.Second
	// readyPoll is the pause between /readyz probes; it bounds how coarse
	// ready_ms is (a cold boot takes about 5 ms).
	readyPoll = 250 * time.Microsecond
)

// child is a moqod process started by the harness.
type child struct {
	cmd     *exec.Cmd
	base    string
	readyMS float64
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	stderr  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// moqodArgs is the command line of every moqod the benchmark boots. The
// workload seed is deliberately absent: moqod sees generated requests,
// never the seed they were generated from.
func moqodArgs(addr string, node nodeConfig) []string {
	args := []string{"-addr", addr,
		"-levels", strconv.Itoa(optLevels),
		"-target", strconv.FormatFloat(optTarget, 'g', -1, 64),
		"-step", strconv.FormatFloat(optStep, 'g', -1, 64)}
	if node.CacheDir != "" {
		args = append(args, "-cache-dir", node.CacheDir)
	}
	if node.NoCache {
		args = append(args, "-cache", "-1")
	}
	return args
}

// childLauncher returns a launcher that starts bin with GOMAXPROCS
// pinned to procs, appending the child's stderr to stderrPath.
func childLauncher(bin string, procs int, stderrPath string) launcher {
	return func(ctx context.Context, node nodeConfig, rec *recorder) (server, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, moqodArgs(addr, node)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stderr = logf
		spawn := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start moqod: %w", err)
		}
		c := &child{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), stderr: logf}
		go func() {
			c.waitErr = cmd.Wait()
			close(c.exited)
		}()
		if err := c.awaitReady(ctx, spawn, rec); err != nil {
			c.kill()
			return nil, err
		}
		return c, nil
	}
}

// awaitReady polls /readyz until it answers 200. The refusals and 503s
// while the node comes up are the wait being measured, so the route is
// accounted once per boot: succeeded when the node became ready in time.
func (c *child) awaitReady(ctx context.Context, spawn time.Time, rec *recorder) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	cnt := rec.Routes["readyz"]
	cnt.Attempted++
	deadline := spawn.Add(30 * time.Second)
	for {
		select {
		case <-c.exited:
			cnt.Failed++
			return fmt.Errorf("moqod exited before it was ready: %v", c.waitErr)
		case <-ctx.Done():
			cnt.Failed++
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cnt.Succeeded++
				c.readyMS = ms(time.Since(spawn))
				return nil
			}
		}
		if time.Now().After(deadline) {
			cnt.Failed++
			return errors.New("moqod not ready after 30s")
		}
		time.Sleep(readyPoll)
	}
}

func (c *child) Base() string     { return c.base }
func (c *child) PID() int         { return c.cmd.Process.Pid }
func (c *child) ReadyMS() float64 { return c.readyMS }

// Stop sends SIGTERM, waits for the drain to finish and the process to
// exit, and kills it after stopGrace.
func (c *child) Stop() (float64, error) {
	defer c.stderr.Close()
	start := time.Now()
	select {
	case <-c.exited:
		return 0, fmt.Errorf("moqod had already exited: %v", c.waitErr)
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return 0, err
	}
	select {
	case <-c.exited:
		if c.waitErr != nil {
			return 0, fmt.Errorf("moqod exit: %w", c.waitErr)
		}
		return ms(time.Since(start)), nil
	case <-time.After(stopGrace):
		c.kill()
		return 0, fmt.Errorf("moqod did not exit within %v of SIGTERM; killed", stopGrace)
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is the only failure, and fine
	<-c.exited
}

// procCPU is a process's cumulative CPU time from /proc/<pid>/stat.
type procCPU struct{ UserS, SysS float64 }

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// parseProcStat reads utime and stime (fields 14 and 15) from the content
// of /proc/<pid>/stat. The comm field may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(stat string) (procCPU, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return procCPU{}, errors.New("proc stat: no comm field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after comm", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procCPU{}, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return procCPU{UserS: float64(ut) / clockTick, SysS: float64(st) / clockTick}, nil
}

// parseVmHWM reads the peak resident set size, in MB, from the content of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM %q", f[0])
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// rssSampler reads a node's resident set size at a fixed rate while the
// timed phase runs. The median of its samples is the end-to-end memory
// metric: the peak (VmHWM) is set by how one garbage-collection cycle
// happened to fall and moved 20 % between runs.
type rssSampler struct {
	pid     atomic.Int64 // 0 = no node to sample right now
	stop    chan struct{}
	stopped sync.Once
	done    chan struct{}
	samples []float64 // MB; owned by the goroutine until done is closed
}

const rssSampleEvery = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if pid := int(s.pid.Load()); pid != 0 {
					// A node between SIGTERM and exit may be gone already.
					if mb, err := readRSSMB(pid); err == nil {
						s.samples = append(s.samples, mb)
					}
				}
			}
		}
	}()
	return s
}

// watch points the sampler at a process; 0 pauses it.
func (s *rssSampler) watch(pid int) { s.pid.Store(int64(pid)) }

// finish stops the sampler and returns its samples; it may be called more
// than once.
func (s *rssSampler) finish() []float64 {
	s.stopped.Do(func() { close(s.stop) })
	<-s.done
	return s.samples
}

// parseStatmRSS reads the resident pages (field 2) from the content of
// /proc/<pid>/statm and converts them to MB.
func parseStatmRSS(statm string, pageSize int) (float64, error) {
	f := strings.Fields(statm)
	if len(f) < 2 {
		return 0, fmt.Errorf("proc statm: %q", statm)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("proc statm: resident %q", f[1])
	}
	return pages * float64(pageSize) / (1 << 20), nil
}

func readRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "statm"))
	if err != nil {
		return 0, err
	}
	return parseStatmRSS(string(data), os.Getpagesize())
}

func readProcCPU(pid int) (procCPU, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(string(data))
}

func readPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}
