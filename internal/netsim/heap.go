package netsim

import "time"

// event is one queued callback. Stored by value in the heap, so the
// queue never allocates per event (the closure a caller passes is the
// only allocation, and it belongs to the caller).
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for equal timestamps
	fn  func()
}

// eventLess is the queue's total order: ascending time, scheduling
// order within an instant.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPushEvent and heapPopEvent implement a plain binary min-heap on
// a value slice. Hand-rolled instead of container/heap because the
// stdlib interface boxes every element through `any`, which costs an
// allocation per Push/Pop — on a path run once per simulated packet,
// that boxing dominated the heap's own work.
func heapPushEvent(h *[]event, ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func heapPopEvent(h *[]event) event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(s[l], s[min]) {
			min = l
		}
		if r < n && eventLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// heapScheduler is the simulator's event queue: one flat binary
// min-heap (DESIGN.md §8.5). The zero value is an empty queue. It is a
// single-goroutine structure, like the Simulator that owns it.
type heapScheduler struct {
	h []event
}

// Push enqueues fn at absolute virtual time at. seq is the simulator's
// monotone scheduling counter and breaks ties between events at the
// same instant (FIFO by scheduling order).
func (s *heapScheduler) Push(at time.Duration, seq uint64, fn func()) {
	heapPushEvent(&s.h, event{at: at, seq: seq, fn: fn})
}

// PopLE removes and returns the earliest event — smallest at, then
// smallest seq — whose timestamp is <= limit. ok is false when no such
// event is pending (the queue may still hold later events).
func (s *heapScheduler) PopLE(limit time.Duration) (at time.Duration, fn func(), ok bool) {
	if len(s.h) == 0 || s.h[0].at > limit {
		return 0, nil, false
	}
	ev := heapPopEvent(&s.h)
	return ev.at, ev.fn, true
}

// Len returns the number of pending events.
func (s *heapScheduler) Len() int { return len(s.h) }
