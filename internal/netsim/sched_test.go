package netsim

import (
	"testing"
	"time"
)

// TestSchedulerSameInstantSeqOrder pins the tiebreak inside one
// instant: events sharing a timestamp run in ascending seq, whatever
// was pushed or popped in between.
func TestSchedulerSameInstantSeqOrder(t *testing.T) {
	var s heapScheduler
	var got []uint64
	rec := func(seq uint64) func() { return func() { got = append(got, seq) } }
	s.Push(300*time.Millisecond, 1, rec(1))
	s.Push(100*time.Millisecond, 2, rec(2))
	at, fn, ok := s.PopLE(time.Hour)
	if !ok || at != 100*time.Millisecond {
		t.Fatalf("first pop at=%v ok=%v", at, ok)
	}
	fn()
	s.Push(300*time.Millisecond, 3, rec(3)) // same instant as seq 1, pushed later
	for {
		_, fn, ok := s.PopLE(time.Hour)
		if !ok {
			break
		}
		fn()
	}
	want := []uint64{2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestSchedulerPopLE checks the limit semantics: events after the
// limit stay queued and are not released early.
func TestSchedulerPopLE(t *testing.T) {
	var s heapScheduler
	s.Push(1500*time.Microsecond, 1, func() {})
	s.Push(1700*time.Microsecond, 2, func() {})
	s.Push(3*time.Millisecond, 3, func() {})
	if _, _, ok := s.PopLE(1 * time.Millisecond); ok {
		t.Fatal("popped an event before its time")
	}
	at, _, ok := s.PopLE(1600 * time.Microsecond)
	if !ok || at != 1500*time.Microsecond {
		t.Fatalf("want 1.5ms event, got at=%v ok=%v", at, ok)
	}
	if _, _, ok := s.PopLE(1600 * time.Microsecond); ok {
		t.Fatal("released an event past the limit")
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	at, _, ok = s.PopLE(time.Hour)
	if !ok || at != 1700*time.Microsecond {
		t.Fatalf("want 1.7ms event, got at=%v ok=%v", at, ok)
	}
	at, _, ok = s.PopLE(time.Hour)
	if !ok || at != 3*time.Millisecond {
		t.Fatalf("want 3ms event, got at=%v ok=%v", at, ok)
	}
	if s.Len() != 0 {
		t.Fatal("queue not drained")
	}
}
