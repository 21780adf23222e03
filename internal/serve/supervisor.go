package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ProcSpec describes one supervised backend process.
type ProcSpec struct {
	// ID names the process in logs and metrics (the backend id).
	ID string
	// Binary and Args are the command line to run.
	Binary string
	Args   []string
	// Stdout and Stderr receive the child's output (nil inherits the
	// supervisor's).
	Stdout io.Writer
	Stderr io.Writer
}

// Proc is one supervised process: started, optionally respawned on
// crash, and stopped with SIGTERM-then-SIGKILL graceful semantics —
// the per-backend half of a rolling restart. Safe for concurrent use.
type Proc struct {
	spec ProcSpec

	mu       sync.Mutex
	cmd      *exec.Cmd
	exited   chan struct{} // closed when the current incarnation exits
	stopping bool          // deliberate stop in progress: don't respawn
}

// StartProc launches the process described by spec.
func StartProc(spec ProcSpec) (*Proc, error) {
	p := &Proc{spec: spec}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// start launches one incarnation. Caller must not hold p.mu.
func (p *Proc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startLocked()
}

func (p *Proc) startLocked() error {
	cmd := exec.Command(p.spec.Binary, p.spec.Args...)
	cmd.Stdout = p.spec.Stdout
	cmd.Stderr = p.spec.Stderr
	if cmd.Stdout == nil {
		cmd.Stdout = os.Stdout
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("serve: start %s: %w", p.spec.ID, err)
	}
	p.cmd = cmd
	p.stopping = false
	exited := make(chan struct{})
	p.exited = exited
	go func() {
		cmd.Wait()
		close(exited)
	}()
	return nil
}

// ID returns the process's spec ID.
func (p *Proc) ID() string { return p.spec.ID }

// Exited returns a channel closed when the current incarnation exits
// (for respawn loops).
func (p *Proc) Exited() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// Stop terminates the process gracefully: SIGTERM, wait for exit until
// ctx expires, then SIGKILL. It marks the stop deliberate so respawn
// loops stand down. Returns nil when the process ends either way.
func (p *Proc) Stop(ctx context.Context) error {
	p.mu.Lock()
	p.stopping = true
	cmd, exited := p.cmd, p.exited
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	select {
	case <-exited:
		return nil // already gone
	default:
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil // raced with exit
	}
	select {
	case <-exited:
		return nil
	case <-ctx.Done():
		cmd.Process.Kill()
		<-exited
		return fmt.Errorf("serve: %s did not drain in time, killed", p.spec.ID)
	}
}

// Restart starts a fresh incarnation; the previous one must have
// exited (use Stop first).
func (p *Proc) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exited != nil {
		select {
		case <-p.exited:
		default:
			return fmt.Errorf("serve: %s still running, stop it before restarting", p.spec.ID)
		}
	}
	return p.startLocked()
}

// stoppingNow reports whether the current exit was deliberate.
func (p *Proc) stoppingNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopping
}

// respawn restarts a crashed process unless a deliberate Stop has
// landed or it is somehow running again — both checked under the lock,
// so a Stop racing the respawn decision always wins.
func (p *Proc) respawn() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopping {
		return nil
	}
	if p.exited != nil {
		select {
		case <-p.exited:
		default:
			return nil // already running
		}
	}
	return p.startLocked()
}

// Supervisor owns a set of backend processes: it respawns crashed ones
// (with a fixed backoff) and stops them all gracefully on shutdown —
// the process-management half of `phprouter -spawn`. Safe for
// concurrent use.
type Supervisor struct {
	// Backoff is the delay before respawning a crashed process
	// (default 500ms; tests shorten it).
	Backoff time.Duration
	// Logf reports supervision events (nil discards them).
	Logf func(format string, args ...any)

	mu    sync.Mutex
	procs []*Proc
}

// NewSupervisor builds an empty supervisor.
func NewSupervisor() *Supervisor {
	return &Supervisor{Backoff: 500 * time.Millisecond}
}

// Add starts a process from spec and begins supervising it.
func (s *Supervisor) Add(spec ProcSpec) (*Proc, error) {
	p, err := StartProc(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

// Procs returns the supervised processes in add order.
func (s *Supervisor) Procs() []*Proc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Proc(nil), s.procs...)
}

// Watch respawns crashed processes until ctx is done. Deliberate stops
// (Proc.Stop) are not respawned, so rolling restarts and shutdown can
// proceed underneath a running Watch.
func (s *Supervisor) Watch(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range s.Procs() {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			for {
				exited := p.Exited()
				select {
				case <-ctx.Done():
					return
				case <-exited:
				}
				if p.stoppingNow() {
					// Deliberate stop: wait for a restart (new exited
					// channel) or shutdown rather than respawning.
					select {
					case <-ctx.Done():
						return
					case <-time.After(s.Backoff):
					}
					continue
				}
				s.logf("backend %s exited unexpectedly, respawning in %v", p.ID(), s.Backoff)
				select {
				case <-ctx.Done():
					return
				case <-time.After(s.Backoff):
				}
				if ctx.Err() != nil {
					return
				}
				if err := p.respawn(); err != nil {
					s.logf("backend %s respawn failed: %v", p.ID(), err)
				}
			}
		}(p)
	}
	wg.Wait()
}

// StopAll stops every process gracefully, in parallel, bounded by ctx.
func (s *Supervisor) StopAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range s.Procs() {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			if err := p.Stop(ctx); err != nil {
				s.logf("%v", err)
			}
		}(p)
	}
	wg.Wait()
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
