package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// running reports whether p's current incarnation is still alive.
func running(p *Proc) bool {
	select {
	case <-p.Exited():
		return false
	default:
		return true
	}
}

// TestProcGracefulStop: SIGTERM reaches the child and Stop returns
// cleanly once it exits (the per-backend half of a rolling restart).
func TestProcGracefulStop(t *testing.T) {
	p, err := StartProc(ProcSpec{
		ID:     "term",
		Binary: "/bin/sh",
		Args:   []string{"-c", `trap 'exit 0' TERM; while :; do sleep 0.05; done`},
		Stdout: io.Discard, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !running(p) {
		t.Fatal("process not running after start")
	}
	time.Sleep(150 * time.Millisecond) // let the shell install its trap
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("graceful stop escalated to kill: %v", err)
	}
	if running(p) {
		t.Fatal("process still running after stop")
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	defer p.Stop(ctx)
	if !running(p) {
		t.Fatal("process not running after restart")
	}
}

// TestProcStopEscalatesToKill: a child that ignores SIGTERM is killed
// when the drain context expires, and Stop reports it.
func TestProcStopEscalatesToKill(t *testing.T) {
	p, err := StartProc(ProcSpec{
		ID:     "stubborn",
		Binary: "/bin/sh",
		Args:   []string{"-c", `trap '' TERM; while :; do sleep 0.05; done`},
		Stdout: io.Discard, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give the shell time to install its TERM trap; signalling earlier
	// hits the default disposition and the test measures nothing.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := p.Stop(ctx); err == nil {
		t.Fatal("Stop should report the escalation to SIGKILL")
	}
	if running(p) {
		t.Fatal("process survived SIGKILL escalation")
	}
}

// TestSupervisorRespawnsCrashes: a crashing child is respawned by
// Watch; a deliberately stopped one is not.
func TestSupervisorRespawnsCrashes(t *testing.T) {
	s := NewSupervisor()
	s.Backoff = 20 * time.Millisecond
	// Every crash Watch sees is logged once, before its respawn.
	var crashes atomic.Int64
	s.Logf = func(string, ...any) { crashes.Add(1) }
	p, err := s.Add(ProcSpec{
		ID:     "crasher",
		Binary: "/bin/sh",
		Args:   []string{"-c", "exit 1"},
		Stdout: io.Discard, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Watch(ctx); close(done) }()

	waitFor(t, 5*time.Second, func() bool { return crashes.Load() >= 3 })

	// A deliberate stop stands the respawner down.
	stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
	defer stopCancel()
	p.Stop(stopCtx)
	seen := crashes.Load()
	time.Sleep(5 * s.Backoff)
	if crashes.Load() > seen+1 { // at most one in-flight respawn may race the stop
		t.Fatalf("respawner kept restarting after deliberate stop: %d -> %d crashes", seen, crashes.Load())
	}

	cancel()
	<-done
	s.StopAll(stopCtx)
}

// TestServeUntilSignal: the lifecycle both binaries share serves until
// its signal context is done, then hands drain a live http.Server and a
// context bounded by the grace; a listener that cannot start is the
// error, with drain never called.
func TestServeUntilSignal(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	sig, stop := context.WithCancel(context.Background())
	served := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	done := make(chan error, 1)
	var drained atomic.Bool
	go func() {
		done <- serveUntilSignal(sig, "test", addr, h, time.Minute, func(ctx context.Context, hs *http.Server) {
			if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > time.Minute {
				t.Errorf("drain context deadline %v (set %v), want within the grace", dl, ok)
			}
			drained.Store(true)
			hs.Shutdown(ctx)
		})
	}()
	go func() {
		for {
			if resp, err := http.Get("http://" + addr + "/"); err == nil {
				resp.Body.Close()
				close(served)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	<-served
	stop()
	if err := <-done; err != nil || !drained.Load() {
		t.Fatalf("after the signal: error %v, drained %v; want nil and true", err, drained.Load())
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("listener still answering after the drain")
	}

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	err = serveUntilSignal(context.Background(), "test", busy.Addr().String(), h, time.Minute, func(context.Context, *http.Server) {
		t.Error("drain called for a listener that never started")
	})
	if err == nil {
		t.Error("a taken address served")
	}
}
