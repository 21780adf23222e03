package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// testPool builds a small software-config pool (no warmup — lifecycle
// tests care about admission, not steady-state costs).
func testPool(t *testing.T, workers int) *workload.Pool {
	t.Helper()
	p, err := workload.NewPool(workers, vm.Config{Mitigations: sim.AllMitigations(), TraceCapacity: -1}, "wordpress", 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// shed is every request a load run rejected, for any reason.
func shed(ls LoadStats) int {
	return ls.ShedOverload + ls.ShedDeadline + ls.ShedCanceled + ls.ShedDraining
}

// checkPoolIntact fails the test if any worker was lost or
// double-released: exactly Size distinct workers must be on the free
// list.
func checkPoolIntact(t *testing.T, p *workload.Pool) {
	t.Helper()
	if idle := p.Idle(); idle != p.Size() {
		t.Fatalf("pool has %d/%d workers free", idle, p.Size())
	}
	seen := map[int]bool{}
	var held []*workload.Worker
	for i := 0; i < p.Size(); i++ {
		w := p.Acquire()
		if seen[w.ID()] {
			t.Fatalf("worker %d on the free list twice", w.ID())
		}
		seen[w.ID()] = true
		held = append(held, w)
	}
	for _, w := range held {
		p.Release(w)
	}
}

// block parks the scheduler's in-flight function until released,
// simulating a long render without burning CPU.
type block struct {
	entered chan struct{}
	release chan struct{}
}

func newBlock() *block {
	return &block{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *block) fn(*workload.Worker) error {
	close(b.entered)
	<-b.release
	return nil
}

func TestShedWhenQueueFull(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 0})

	b := newBlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), b.fn)
		done <- err
	}()
	<-b.entered // the single admission token is now held

	if _, err := s.Do(context.Background(), func(*workload.Worker) error { return nil }); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	close(b.release)
	if err := <-done; err != nil {
		t.Fatalf("blocked request: %v", err)
	}

	st := s.Stats()
	if st.Served != 1 || st.ShedOverload != 1 || st.Admitted != 1 {
		t.Errorf("stats = %+v", st)
	}
	checkPoolIntact(t, s.pool)
}

func TestDeadlineWhileQueued(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 2, Timeout: 10 * time.Millisecond})

	b := newBlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), b.fn)
		done <- err
	}()
	<-b.entered

	// Queued behind the blocked worker; the 10ms admission deadline
	// expires first.
	wait, err := s.Do(context.Background(), func(*workload.Worker) error { return nil })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued past deadline: err = %v, want ErrDeadline", err)
	}
	if wait < 10*time.Millisecond {
		t.Errorf("reported queue wait %v shorter than the deadline", wait)
	}
	close(b.release)
	<-done

	st := s.Stats()
	if st.ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
	// The timed-out request was admitted, so its wait is in the
	// histogram alongside the served one's.
	if st.QueueWait.Count != 2 {
		t.Errorf("queue-wait observations = %d, want 2", st.QueueWait.Count)
	}
	checkPoolIntact(t, s.pool)
}

func TestExpiredBeforeAdmission(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 1})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Do(ctx, func(*workload.Worker) error { return nil }); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx: err = %v, want ErrDeadline", err)
	}
	// The shed must not leak its admission token: a live request still
	// gets through.
	if _, err := s.Do(context.Background(), func(w *workload.Worker) error {
		_, err := w.ServeOneCtx(context.Background())
		return err
	}); err != nil {
		t.Fatalf("after expired shed: %v", err)
	}
	checkPoolIntact(t, s.pool)
}

// TestCanceledBeforeAdmission: a context the client already abandoned
// is a canceled outcome, not a deadline shed — the regression the
// conflated mapping used to hide (disconnects inflating 504 metrics).
func TestCanceledBeforeAdmission(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, func(*workload.Worker) error { return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	}
	st := s.Stats()
	if st.ShedCanceled != 1 || st.ShedDeadline != 0 {
		t.Errorf("sheds = canceled %d, deadline %d; want 1, 0", st.ShedCanceled, st.ShedDeadline)
	}
	if st.Shed() != 1 {
		t.Errorf("Shed() = %d, want 1 (canceled must count)", st.Shed())
	}
	checkPoolIntact(t, s.pool)
}

// TestCanceledWhileQueued: a client disconnecting while its request is
// queued for a worker sheds with ErrCanceled and bumps only the
// canceled counter, even with a per-request Timeout configured (the
// cancel races no deadline here — the parent context was canceled).
func TestCanceledWhileQueued(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 2, Timeout: time.Hour})

	b := newBlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), b.fn)
		done <- err
	}()
	<-b.entered

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, func(*workload.Worker) error { return nil })
		queued <- err
	}()
	// Wait until the second request is measurably queued, then hang up.
	for s.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled while queued: err = %v, want ErrCanceled", err)
	}
	close(b.release)
	if err := <-done; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
	st := s.Stats()
	if st.ShedCanceled != 1 || st.ShedDeadline != 0 {
		t.Errorf("sheds = canceled %d, deadline %d; want 1, 0", st.ShedCanceled, st.ShedDeadline)
	}
	checkPoolIntact(t, s.pool)
}

// TestFnCanceledMapsToErrCanceled: a worker function reporting a
// canceled context surfaces as ErrCanceled, distinct from the deadline
// mapping TestFnContextErrorMapsToDeadline pins.
func TestFnCanceledMapsToErrCanceled(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 1})
	if _, err := s.Do(context.Background(), func(*workload.Worker) error {
		return context.Canceled
	}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("fn canceled error: %v, want ErrCanceled", err)
	}
	if st := s.Stats(); st.ShedCanceled != 1 || st.ShedDeadline != 0 || st.Served != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFnContextErrorMapsToDeadline: a worker function reporting context
// expiry (deadline spent queueing, checked at pickup) surfaces as
// ErrDeadline, not a raw context error.
func TestFnContextErrorMapsToDeadline(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 1})
	if _, err := s.Do(context.Background(), func(*workload.Worker) error {
		return context.DeadlineExceeded
	}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("fn ctx error: %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.ShedDeadline != 1 || st.Served != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDrainDuringLoad is the drain acceptance criterion under -race:
// with a client fleet mid-flight, Drain finishes every admitted request
// (no lost worker, no double release), sheds the rest with ErrDraining,
// and repeated drains stay idempotent.
func TestDrainDuringLoad(t *testing.T) {
	s := NewScheduler(testPool(t, 4), Config{QueueDepth: 8})

	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[error]int{}
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Do(context.Background(), func(w *workload.Worker) error {
					_, err := w.ServeOneCtx(context.Background())
					return err
				})
				mu.Lock()
				outcomes[err]++
				mu.Unlock()
				if errors.Is(err, ErrDraining) {
					return
				}
			}
		}()
	}

	// Let some traffic through, then drain while clients are active.
	for s.Stats().Served < 8 {
		time.Sleep(time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	if st := s.State(); st != StateDrained {
		t.Errorf("state = %v, want drained", st)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
	if outcomes[nil] == 0 {
		t.Errorf("no requests served before drain: %v", outcomes)
	}
	st := s.Stats()
	if got := int64(outcomes[nil]); st.Served != got {
		t.Errorf("served counter %d != observed %d", st.Served, got)
	}
	if st.ShedDraining != int64(outcomes[ErrDraining]) {
		t.Errorf("draining counter %d != observed %d", st.ShedDraining, outcomes[ErrDraining])
	}
	checkPoolIntact(t, s.pool)

	if _, err := s.Do(context.Background(), func(*workload.Worker) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Do: err = %v, want ErrDraining", err)
	}
}

// TestDrainTimeout: a drain bounded by an already-short context returns
// the context error and leaves the state Draining (not falsely
// Drained) while a request is still in flight.
func TestDrainTimeout(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{})

	b := newBlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), b.fn)
		done <- err
	}()
	<-b.entered

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck request: err = %v", err)
	}
	if st := s.State(); st != StateDraining {
		t.Errorf("state = %v, want draining", st)
	}
	close(b.release)
	<-done
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after unblock: %v", err)
	}
	if st := s.State(); st != StateDrained {
		t.Errorf("state = %v, want drained", st)
	}
}

// TestDrainLateQuiescence is the regression test for the stuck-Draining
// bug: when the drain context expires before the last request finishes,
// quiescence arriving later must still move the state machine to
// Drained on its own — no further Drain call — and a repeated Drain
// whose own context is already expired must still report success.
func TestDrainLateQuiescence(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{})

	b := newBlock()
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), b.fn)
		done <- err
	}()
	<-b.entered

	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain with stuck request: err = %v", err)
	}
	if st := s.State(); st != StateDraining {
		t.Fatalf("state = %v, want draining", st)
	}

	// Quiescence arrives after the drain caller gave up. Before the fix
	// nobody owned the Draining→Drained transition anymore and the state
	// stuck at Draining forever (health checks report draining, the
	// process never observes completion).
	close(b.release)
	if err := <-done; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.State() != StateDrained {
		if time.Now().After(deadline) {
			t.Fatalf("state stuck at %v after quiescence", s.State())
		}
		time.Sleep(time.Millisecond)
	}

	// Re-drain with an expired context: quiescence already happened, so
	// this must be a success, not ctx.Err().
	ectx, ecancel := context.WithCancel(context.Background())
	ecancel()
	if err := s.Drain(ectx); err != nil {
		t.Errorf("re-drain after quiescence with expired ctx: %v", err)
	}
	checkPoolIntact(t, s.pool)
}

// TestRunLoadServesAll: an unsaturated closed loop serves everything,
// every request's queue wait is observed, and the pool's meter holds the
// work.
func TestRunLoadServesAll(t *testing.T) {
	pool := testPool(t, 2)
	s := NewScheduler(pool, Config{QueueDepth: 4, CtxSwitchEvery: 4})
	ls := RunLoad(context.Background(), s, LoadOptions{Requests: 12, Clients: 2})
	if ls.Submitted != 12 || ls.Served != 12 || shed(ls) != 0 {
		t.Fatalf("load stats = %+v", ls)
	}
	if st := s.Stats(); st.QueueWait.Count != 12 || st.Served != 12 {
		t.Errorf("scheduler observed %d queue waits for %d served, want 12/12", st.QueueWait.Count, st.Served)
	}
	if cycles := pool.MergedMeter().TotalCycles(); cycles <= 0 {
		t.Errorf("merged meter holds %v cycles after 12 requests", cycles)
	}
	checkPoolIntact(t, pool)
}

// TestRunLoadOverload: submissions against a scheduler with no free
// capacity shed overload (typed, counted, partition intact), and the
// same scheduler serves again once capacity frees. The only slot is
// held explicitly for the first run — on a single-CPU host 8 clients
// racing a free worker can serialize perfectly and never collide, so
// overload is forced rather than hoped for.
func TestRunLoadOverload(t *testing.T) {
	s := NewScheduler(testPool(t, 1), Config{QueueDepth: 0})

	release := make(chan struct{})
	blocked := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), func(w *workload.Worker) error {
			close(blocked)
			<-release
			return nil
		})
		blockerDone <- err
	}()
	<-blocked

	ls := RunLoad(context.Background(), s, LoadOptions{Requests: 60, Clients: 8})
	if ls.Submitted != 60 {
		t.Fatalf("submitted %d, want 60", ls.Submitted)
	}
	if ls.Served+shed(ls) != ls.Submitted {
		t.Errorf("outcomes don't partition: %+v", ls)
	}
	if ls.ShedOverload != 60 {
		t.Errorf("60 submissions against a held slot shed %d, want 60: %+v", ls.ShedOverload, ls)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker request failed: %v", err)
	}

	ls2 := RunLoad(context.Background(), s, LoadOptions{Requests: 12, Clients: 8})
	if ls2.Served+shed(ls2) != ls2.Submitted {
		t.Errorf("post-release outcomes don't partition: %+v", ls2)
	}
	if ls2.Served == 0 {
		t.Errorf("overload starved everything after release: %+v", ls2)
	}
	checkPoolIntact(t, s.pool)
}

// TestRunLoadCancelled: cancelling mid-run stops submissions and still
// returns consistent partial stats.
func TestRunLoadCancelled(t *testing.T) {
	pool := testPool(t, 1)
	s := NewScheduler(pool, Config{QueueDepth: 2})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for s.Stats().Served < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	ls := RunLoad(ctx, s, LoadOptions{Requests: 100000, Clients: 2})
	if ls.Submitted >= 100000 {
		t.Fatalf("cancellation did not stop the run: %+v", ls)
	}
	if ls.Served+shed(ls) != ls.Submitted {
		t.Errorf("outcomes don't partition: %+v", ls)
	}
	checkPoolIntact(t, pool)
}
