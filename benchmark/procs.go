package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the server programs under test, built from the checkout
// the benchmark runs in.
type binaries struct {
	phpserve  string
	phprouter string
	buildTime time.Duration
}

// repoRoot walks up from the working directory to the directory holding
// the root module (go.mod declaring "module repro") and cmd/phpserve.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module repro\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "phpserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: cannot find the repro module root above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles cmd/phpserve and cmd/phprouter into outDir.
// Build time is reported on its own and never counted in setup_s.
func buildBinaries(ctx context.Context, root, outDir string) (binaries, error) {
	b := binaries{
		phpserve:  filepath.Join(outDir, "phpserve"),
		phprouter: filepath.Join(outDir, "phprouter"),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return b, err
	}
	start := time.Now()
	for _, t := range []struct{ out, pkg string }{{b.phpserve, "./cmd/phpserve"}, {b.phprouter, "./cmd/phprouter"}} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", t.out, t.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("go build %s: %v\n%s", t.pkg, err, out)
		}
	}
	b.buildTime = time.Since(start)
	return b, nil
}

// freePort finds a loopback port such that port..port+span-1 are all
// bindable right now, by binding and releasing them. Another process can
// still take one before the server binds it; startFleet retries on that.
func freePort(span int) (int, error) {
	for try := 0; try < 64; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		ok := port+span-1 <= 65535
		for p := port + 1; ok && p < port+span; p++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
			if err != nil {
				ok = false
				break
			}
			l.Close()
		}
		if ok {
			return port, nil
		}
	}
	return 0, errors.New("benchmark: no free loopback port range found")
}

// lockedBuffer collects a child's output; os/exec writes to it from its
// copy goroutine while the benchmark may read it after a failure.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// proc is one spawned server process, leader of its own process group.
type proc struct {
	name    string // "phpserve" | "phprouter"
	addr    string
	cmd     *exec.Cmd
	out     *lockedBuffer
	exited  chan struct{}
	waitErr error
}

func startProc(path, name, addr string, args []string) (*proc, error) {
	p := &proc{name: name, addr: addr, out: &lockedBuffer{}, exited: make(chan struct{})}
	p.cmd = exec.Command(path, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls /healthz over a fresh connection each time (the
// listener may not exist yet) until it answers 200.
func (p *proc) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited early: %v\n%s", p.name, p.waitErr, p.out.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if c, err := dial(p.addr); err == nil {
			resp, err := c.get("/healthz")
			c.close()
			if err == nil && resp.status == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v\n%s", p.name, limit, p.out.String())
}

// stop sends SIGTERM and requires a clean drain: exit code 0 and the
// process's "drained:" line.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	select {
	case <-p.exited:
	case <-time.After(40 * time.Second):
		return fmt.Errorf("%s did not exit within 40s of SIGTERM", p.name)
	}
	if p.waitErr != nil {
		return fmt.Errorf("%s: unclean exit: %v\n%s", p.name, p.waitErr, p.out.String())
	}
	if want := p.name + ": drained:"; strings.Count(p.out.String(), want) != 1 {
		return fmt.Errorf("%s: want one %q line\n%s", p.name, want, p.out.String())
	}
	return nil
}

// kill ends the process group and reaps the process.
func (p *proc) kill() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
}

// fleet is one running server set: a single phpserve, or two phpserve
// backends with a phprouter in front of them.
type fleet struct {
	serve  []*proc // phpserve processes (scrape targets)
	router *proc   // nil without a cluster
	front  string  // address clients talk to
	setup  time.Duration
}

// serveArgs are phpserve's flags from the issue's workload table.
func serveArgs(spec workloadSpec, seed int64, addr string, backend int) []string {
	if spec.Cluster {
		// A cluster backend, as phprouter's own spawner would start it;
		// it keeps phpserve's default corpus seed.
		return []string{
			"-fpm", "-backend", strconv.Itoa(backend), "-listen", addr,
			"-app", spec.App, "-workers", strconv.Itoa(spec.Workers),
			"-cache", strconv.Itoa(clusterCache), "-sample", "0",
		}
	}
	args := []string{
		"-addr", addr, "-app", spec.App, "-config", spec.Config,
		"-workers", strconv.Itoa(spec.Workers), "-queue", "64", "-sample", "0",
		"-seed", strconv.FormatInt(seed, 10),
	}
	if spec.Tier != "" {
		args = append(args, "-tier", spec.Tier)
	}
	return args
}

// startFleet spawns the workload's servers and waits until every
// /healthz answers 200; the elapsed time since the first spawn is the
// fleet's setup time. A lost port race (a child exits before becoming
// ready) is retried on fresh ports.
func startFleet(ctx context.Context, bins binaries, spec workloadSpec, seed int64) (*fleet, error) {
	var lastErr error
	for try := 0; try < 3; try++ {
		span := 1
		if spec.Cluster {
			span = 3
		}
		port, err := freePort(span)
		if err != nil {
			return nil, err
		}
		f, err := spawn(ctx, bins, spec, seed, port)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// spawn starts the fleet on port (front) and, for a cluster, port+1 and
// port+2 (backends). The backends are started by the benchmark and
// handed to phprouter with -backends once they are ready: phprouter's
// own spawner polls its children every 200 ms, which would quantise
// setup_s to that step.
func spawn(ctx context.Context, bins binaries, spec workloadSpec, seed int64, port int) (_ *fleet, err error) {
	f := &fleet{front: "127.0.0.1:" + strconv.Itoa(port)}
	defer func() {
		if err != nil {
			f.kill()
		}
	}()
	start := time.Now()
	n := 1
	if spec.Cluster {
		n = 2
	}
	for i := 0; i < n; i++ {
		addr := f.front
		if spec.Cluster {
			addr = "127.0.0.1:" + strconv.Itoa(port+1+i)
		}
		p, err := startProc(bins.phpserve, "phpserve", addr, serveArgs(spec, seed, addr, i))
		if err != nil {
			return nil, err
		}
		f.serve = append(f.serve, p)
	}
	for _, p := range f.serve {
		if err := p.waitReady(ctx, 60*time.Second); err != nil {
			return nil, err
		}
	}
	if spec.Cluster {
		backends := make([]string, len(f.serve))
		for i, p := range f.serve {
			backends[i] = p.addr
		}
		f.router, err = startProc(bins.phprouter, "phprouter", f.front,
			[]string{"-addr", f.front, "-backends", strings.Join(backends, ","), "-sample", "0"})
		if err != nil {
			return nil, err
		}
		if err := f.router.waitReady(ctx, 60*time.Second); err != nil {
			return nil, err
		}
	}
	f.setup = time.Since(start)
	return f, nil
}

// procs lists the fleet's processes, front first: the order they are
// stopped in, so the router drains before its backends go away.
func (f *fleet) procs() []*proc {
	var out []*proc
	if f.router != nil {
		out = append(out, f.router)
	}
	return append(out, f.serve...)
}

func pidsOf(ps []*proc) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// stop drains every process and requires each drain to be clean;
// whatever is still alive after an error is killed.
func (f *fleet) stop() error {
	var errs []error
	for _, p := range f.procs() {
		errs = append(errs, p.stop())
	}
	if err := errors.Join(errs...); err != nil {
		f.kill()
		return err
	}
	return nil
}

// kill ends every process group of the fleet.
func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// strays lists live processes whose executable is one of the benchmark's
// own server binaries. After a run there must be none.
func strays(bins binaries) []int {
	var out []int
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink("/proc/" + e.Name() + "/exe")
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		if exe == bins.phpserve || exe == bins.phprouter {
			out = append(out, pid)
		}
	}
	return out
}

// reapStrays kills leftover server processes and reports them as an
// error: a child that outlives its run invalidates the run.
func reapStrays(bins binaries) error {
	left := strays(bins)
	if len(left) == 0 {
		return nil
	}
	for _, pid := range left {
		syscall.Kill(pid, syscall.SIGKILL)
	}
	for wait := 0; wait < 200 && len(strays(bins)) > 0; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("server processes outlived the run: pids %v", left)
}

// parseProcTicks extracts utime+stime, in clock ticks, from one
// /proc/<pid>/stat line. The command field is parenthesised and may
// itself contain spaces or parentheses, so fields are counted from the
// last ')'.
func parseProcTicks(line string) (uint64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime 15.
	if len(f) < 13 {
		return 0, errors.New("stat: short line")
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports, and the benchmark reads no other kernel's /proc.
const clockTick = 100

// cpuSeconds sums utime+stime over pids.
func cpuSeconds(pids []int) (float64, error) {
	var ticks uint64
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			return 0, err
		}
		t, err := parseProcTicks(string(b))
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return float64(ticks) / clockTick, nil
}

// parseHostTicks extracts the steal ticks and the ticks of every state
// together from the first line of /proc/stat
// ("cpu user nice system idle iowait irq softirq steal guest guest_nice";
// guest time is already part of user).
func parseHostTicks(line string) (steal, total uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: no aggregate cpu line with a steal column")
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostTicks reads the host-wide steal and total CPU ticks so far.
func hostTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseHostTicks(line)
}

// parseStatmRSS extracts the resident set, in pages, from the text of
// /proc/<pid>/statm ("size resident shared ...").
func parseStatmRSS(statm string) (uint64, error) {
	f := strings.Fields(statm)
	if len(f) < 2 {
		return 0, errors.New("statm: short line")
	}
	return strconv.ParseUint(f[1], 10, 64)
}

// rssMB sums the current resident set over pids, in MB.
func rssMB(pids []int) (float64, error) {
	var pages uint64
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
		if err != nil {
			return 0, err
		}
		n, err := parseStatmRSS(string(b))
		if err != nil {
			return 0, err
		}
		pages += n
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// selfCPUSeconds is the generator's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
