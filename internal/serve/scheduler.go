// Package serve is the request-lifecycle layer between an ingress
// frontend (cmd/phpserve) and the worker pool: bounded admission,
// per-request deadlines, overload shedding, and graceful drain.
//
// The paper's evaluation stack (§5.1) is a real server — nginx in front
// of a pool of HHVM request workers — and real servers do not let
// overload turn into unbounded queueing: they bound the line at the
// door, shed what will not fit with a retryable error, time out
// requests that would be stale by the time they ran, and drain in-flight
// work before exiting. Scheduler makes those behaviours explicit so the
// frontend stays a thin HTTP mapping: admission (one token per request,
// capacity workers+queue), queueing (context-aware worker acquisition),
// execution (the caller's function on an owned worker), and completion
// (token back, counters updated). Everything the layer decides is
// observable: per-outcome shed counters, an instantaneous queue-depth
// gauge, and a queue-wait histogram.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Typed admission outcomes. Frontends map these to their protocol:
// phpserve returns 503 + Retry-After for ErrOverloaded and ErrDraining
// (the client should back off and retry) and 504 for ErrDeadline (the
// request's own deadline passed before a worker could run it).
var (
	// ErrOverloaded reports that the admission queue was full: the
	// request was shed immediately instead of joining an unbounded line.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDeadline reports that the request's deadline expired before a
	// worker picked it up (or it arrived already expired).
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrCanceled reports that the client abandoned the request (its
	// context was canceled) before a worker ran it. Distinct from
	// ErrDeadline: the server was not too slow, the caller walked away.
	ErrCanceled = errors.New("serve: canceled by client before execution")
	// ErrDraining reports that the scheduler has stopped admitting
	// because the server is shutting down.
	ErrDraining = errors.New("serve: draining, not admitting requests")
)

// State is the drain state machine's position: Running admits,
// Draining refuses new work while in-flight requests finish, Drained
// means the last in-flight request has completed.
type State int32

// Drain state machine positions, in lifecycle order.
const (
	StateRunning State = iota
	StateDraining
	StateDrained
)

// String returns the state name /healthz reports.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "ready"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	}
	return "unknown"
}

// Config sizes the lifecycle layer.
type Config struct {
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the worker count. 0 means no queue: a request is shed
	// unless a worker slot is immediately grantable.
	QueueDepth int
	// Timeout is the per-request deadline applied at admission (0
	// disables). If the caller's context already carries an earlier
	// deadline, the earlier one wins.
	Timeout time.Duration
	// CtxSwitchEvery makes Serve end every n-th request a worker serves
	// with a context switch on its runtime (0 disables) — phpserve's
	// -ctxswitch, matching LoadGenerator.ContextSwitchEvery offline.
	CtxSwitchEvery int
}

// Stats is a consistent snapshot of the scheduler's lifetime counters.
// The tags are the one declaration of phpserve's shed_* /stats keys and
// its phpserve_shed_total / phpserve_queue_wait_seconds series.
type Stats struct {
	// Admitted counts requests that passed admission (they were served,
	// or timed out while queued).
	Admitted int64 `json:"-"`
	// Served counts requests whose worker function ran to completion.
	Served int64 `json:"-"`
	// ShedOverload counts requests rejected because the queue was full;
	// ShedDeadline those whose deadline expired before execution (at
	// admission, while queued, or at worker pickup); ShedCanceled those
	// whose client abandoned them (context canceled) before execution —
	// disconnects, not server slowness; ShedDraining those rejected
	// during shutdown.
	ShedOverload int64 `json:"shed_overload" prom:"shed_total,counter,reason=overload" help:"Requests rejected by the lifecycle layer, by reason."`
	ShedDeadline int64 `json:"shed_timeout" prom:"shed_total,counter,reason=timeout"`
	ShedCanceled int64 `json:"shed_canceled" prom:"shed_total,counter,reason=canceled"`
	ShedDraining int64 `json:"shed_draining" prom:"shed_total,counter,reason=draining"`
	// QueueWait is the histogram of time admitted requests spent
	// waiting for a worker.
	QueueWait obs.HistogramSnapshot `json:"-" prom:"queue_wait_seconds,histogram" help:"Time admitted requests spent waiting for a worker."`
}

// Shed returns the total requests rejected for any reason.
func (s Stats) Shed() int64 {
	return s.ShedOverload + s.ShedDeadline + s.ShedCanceled + s.ShedDraining
}

// Scheduler owns the request lifecycle in front of a workload.Pool.
// Safe for concurrent use by any number of request goroutines.
type Scheduler struct {
	pool *workload.Pool
	cfg  Config
	// slots is the admission semaphore: capacity pool.Size()+QueueDepth
	// tokens, one held per request from admission to completion. A full
	// channel is the "queue full" signal, so goroutine pile-up under
	// overload is bounded by the token count.
	slots chan struct{}

	// mu guards state and the inflight Add/Wait handoff (an Add racing
	// a Wait after the state flip would be a WaitGroup misuse).
	mu       sync.Mutex
	state    State
	inflight sync.WaitGroup
	// drainDone is created (under mu) by the first Drain call and closed
	// by the single waiter goroutine once the last in-flight request
	// completes — after it has flipped the state to Drained. Keeping the
	// transition on the waiter, not in Drain's select, means quiescence
	// that arrives after a drain context expired still lands the state
	// machine in Drained instead of sticking at Draining forever.
	drainDone chan struct{}

	statsMu      sync.Mutex
	queued       int
	admitted     int64
	served       int64
	shedOverload int64
	shedDeadline int64
	shedCanceled int64
	shedDraining int64
	waitHist     *obs.Histogram
}

// NewScheduler builds the lifecycle layer over pool. The pool must not
// be driven through Run while the scheduler is serving (offline
// experiments use one or the other at a time).
func NewScheduler(pool *workload.Pool, cfg Config) *Scheduler {
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Scheduler{
		pool:     pool,
		cfg:      cfg,
		slots:    make(chan struct{}, pool.Size()+cfg.QueueDepth),
		waitHist: obs.NewHistogram(obs.DefLatencyBuckets()),
	}
}

// QueueDepth returns the instantaneous number of admitted requests
// waiting for a worker — the /metrics queue-depth gauge.
func (s *Scheduler) QueueDepth() int {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.queued
}

// QueueLimit returns the configured waiting-line capacity beyond the
// worker count.
func (s *Scheduler) QueueLimit() int { return s.cfg.QueueDepth }

// State returns the drain state machine's current position.
func (s *Scheduler) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Stats returns a consistent snapshot of the lifetime counters and the
// queue-wait histogram.
func (s *Scheduler) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return Stats{
		Admitted:     s.admitted,
		Served:       s.served,
		ShedOverload: s.shedOverload,
		ShedDeadline: s.shedDeadline,
		ShedCanceled: s.shedCanceled,
		ShedDraining: s.shedDraining,
		QueueWait:    s.waitHist.Snapshot(),
	}
}

// shedCtx maps a context failure observed before or at execution to its
// typed shed outcome and bumps the matching counter: a canceled context
// is the client abandoning the request (ErrCanceled), anything else is
// the deadline running out (ErrDeadline). Conflating the two would let
// client disconnects inflate the deadline-shed metrics and surface as
// 504s for requests nobody was waiting on.
func (s *Scheduler) shedCtx(err error) error {
	if errors.Is(err, context.Canceled) {
		s.count(&s.shedCanceled)
		return ErrCanceled
	}
	s.count(&s.shedDeadline)
	return ErrDeadline
}

// admit is the admission gate Do and DoCached share: drain state (shed
// with ErrDraining), the request deadline (Config.Timeout applied here;
// an already-expired context sheds), then the bounded token (shed with
// ErrOverloaded). On success the request holds an in-flight count and a
// slot until leave runs with the returned cancel func, and ctx carries
// the deadline.
func (s *Scheduler) admit(ctx context.Context) (context.Context, context.CancelFunc, error) {
	s.mu.Lock()
	if s.state != StateRunning {
		s.mu.Unlock()
		s.count(&s.shedDraining)
		return ctx, nil, ErrDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()

	cancel := context.CancelFunc(func() {})
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	err := ctx.Err()
	if err == nil {
		select {
		case s.slots <- struct{}{}:
			s.count(&s.admitted)
			return ctx, cancel, nil
		default:
			s.count(&s.shedOverload)
			err = ErrOverloaded
		}
	} else {
		err = s.shedCtx(err)
	}
	cancel()
	s.inflight.Done()
	return ctx, nil, err
}

// leave returns what admit granted: the token, the deadline timer, the
// in-flight count.
func (s *Scheduler) leave(cancel context.CancelFunc) {
	<-s.slots
	cancel()
	s.inflight.Done()
}

// acquire queues an admitted request for a worker, bounded by its
// deadline, keeping the queue-depth gauge and the queue-wait histogram.
// The wait is valid on every outcome (on failure it is what expired the
// request); a failure is the context's error and no worker is held.
func (s *Scheduler) acquire(ctx context.Context) (*workload.Worker, time.Duration, error) {
	s.statsMu.Lock()
	s.queued++
	s.statsMu.Unlock()
	t0 := time.Now()
	w, err := s.pool.AcquireCtx(ctx)
	wait := time.Since(t0)
	s.statsMu.Lock()
	s.queued--
	s.waitHist.Observe(wait.Seconds())
	s.statsMu.Unlock()
	return w, wait, err
}

// settle closes an admitted request's accounting: nil counts as served,
// context failure — an expired deadline or a canceled client, wherever
// the clock ran out — becomes its typed shed, anything else is the
// worker function's own error, returned as-is.
func (s *Scheduler) settle(err error) error {
	switch {
	case err == nil:
		s.count(&s.served)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return s.shedCtx(err)
	}
	return err
}

// Do runs one request through the full lifecycle: admission (shed with
// ErrDraining or ErrOverloaded), queueing for a worker (bounded by the
// request's deadline; shed with ErrDeadline), execution of fn on the
// owned worker, and release. The returned duration is the time spent
// waiting for a worker, valid whenever admission succeeded (including
// ErrDeadline sheds — the wait is what expired the request). fn's error
// is returned as-is, except context failure: an expired deadline maps
// to ErrDeadline regardless of where the clock ran out, and a canceled
// context (the client abandoned the request) maps to ErrCanceled.
func (s *Scheduler) Do(ctx context.Context, fn func(w *workload.Worker) error) (time.Duration, error) {
	ctx, cancel, err := s.admit(ctx)
	if err != nil {
		return 0, err
	}
	defer s.leave(cancel)
	w, wait, err := s.acquire(ctx)
	if err != nil {
		return wait, s.settle(err)
	}
	defer s.pool.Release(w)
	return wait, s.settle(fn(w))
}

// count bumps one lifetime counter under statsMu.
func (s *Scheduler) count(c *int64) {
	s.statsMu.Lock()
	*c++
	s.statsMu.Unlock()
}

// Drain runs the shutdown state machine: stop admitting (new requests
// shed with ErrDraining), then wait — bounded by ctx — for every
// in-flight request to complete. On success the state is Drained and
// every worker is back on the free list; if ctx expires first the
// state stays Draining and the context's error is returned. Drain is
// idempotent: concurrent or repeated calls all wait for the same
// quiescence, and quiescence that arrives after a bounded Drain already
// gave up still moves the state to Drained — the transition belongs to
// the single waiter goroutine, not to whichever Drain call happened to
// be watching. A repeated Drain after quiescence returns nil even if
// its own context has already expired.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.state == StateRunning {
		s.state = StateDraining
	}
	if s.drainDone == nil {
		done := make(chan struct{})
		s.drainDone = done
		go func() {
			s.inflight.Wait()
			s.mu.Lock()
			if s.state == StateDraining {
				s.state = StateDrained
			}
			s.mu.Unlock()
			close(done)
		}()
	}
	done := s.drainDone
	s.mu.Unlock()

	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Both channels may be ready at once (a re-drain with an already
		// expired context after quiescence); success must win the race.
		select {
		case <-done:
			return nil
		default:
		}
		return ctx.Err()
	}
}
