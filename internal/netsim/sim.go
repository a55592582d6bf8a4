// Package netsim is the discrete-event network simulator that stands
// in for the Internet in the reproduced measurements. It provides a
// virtual clock with an event queue, hosts placed at geographic
// coordinates, point-to-point latency sampled from the geo path model,
// packet loss, and IP anycast services with BGP-like catchment noise.
//
// Everything runs single-threaded inside Run, so protocol engines
// built on it need no locking; the same engines also run over real
// sockets via the small transport interfaces they accept.
package netsim

import (
	"context"
	"time"

	"ritw/internal/obs"
)

// Simulator is a deterministic discrete-event executor with a virtual
// clock over a binary-heap event queue. Create one with NewSimulator.
type Simulator struct {
	now    time.Duration
	sched  heapScheduler
	nextID uint64
	events *obs.Counter
}

// SetMetrics counts processed events as netsim_events_total in r.
// Metrics never influence scheduling, so instrumented runs stay
// byte-identical to bare ones.
func (s *Simulator) SetMetrics(r *obs.Registry) {
	s.events = r.Counter("netsim_events_total")
}

// SchedulerKind has one value; kept only for bench/sim.go's `cfg.Scheduler = netsim.SchedHeap`.
type SchedulerKind uint8

// SchedHeap is SchedulerKind's one value, kept only for that assignment.
const SchedHeap SchedulerKind = 0

// NewSimulator returns an empty simulator at virtual time zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule runs fn after delay d of virtual time. Events scheduled for
// the same instant run in scheduling order, keeping runs reproducible.
// A negative delay is treated as zero.
func (s *Simulator) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.nextID++
	s.sched.Push(s.now+d, s.nextID, fn)
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now).
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) {
	s.Schedule(t-s.now, fn)
}

// maxDeadline drains every event regardless of timestamp.
const maxDeadline = time.Duration(1<<63 - 1)

// Run executes events until the queue drains and returns the final
// virtual time.
func (s *Simulator) Run() time.Duration {
	for s.step(maxDeadline) {
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline, leaves later
// events queued, and advances the clock to deadline.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for s.step(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ctxCheckStride is how many events RunUntilContext executes between
// cancellation checks: large enough that the select never shows up in
// profiles, small enough that cancellation lands within microseconds.
const ctxCheckStride = 1024

// RunUntilContext is RunUntil with cooperative cancellation: it polls
// ctx every ctxCheckStride events and abandons the run with ctx.Err()
// when cancelled. A nil return means the simulation reached deadline.
// Cancellation leaves the simulator mid-run; callers must discard it.
func (s *Simulator) RunUntilContext(ctx context.Context, deadline time.Duration) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		ran := false
		for i := 0; i < ctxCheckStride; i++ {
			if !s.step(deadline) {
				break
			}
			ran = true
		}
		if !ran {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.sched.Len() }

// step pops and runs the earliest event at or before deadline,
// reporting whether one existed.
func (s *Simulator) step(deadline time.Duration) bool {
	at, fn, ok := s.sched.PopLE(deadline)
	if !ok {
		return false
	}
	if at > s.now {
		s.now = at
	}
	s.events.Inc()
	fn()
	return true
}
