package obs

import (
	"sync"
	"testing"
	"time"
)

func TestEventRingBoundedAndCounted(t *testing.T) {
	r := NewEventRing(3)
	t0 := time.Unix(1700000000, 0)
	r.Add(t0, EventBackendUp, "b0", "")
	r.Add(t0.Add(1*time.Second), EventBackendUp, "b1", "")
	r.Add(t0.Add(2*time.Second), EventBackendDown, "b0", "health check failed")
	r.Add(t0.Add(3*time.Second), EventRingChange, "b1", "virtual nodes removed")

	last := r.Last(0)
	if len(last) != 3 {
		t.Fatalf("retained %d events, want 3", len(last))
	}
	// Oldest (b0 up) was evicted; order is oldest-first.
	if last[0].Kind != EventBackendUp || last[0].Backend != "b1" {
		t.Fatalf("last[0] = %+v", last[0])
	}
	if last[2].Kind != EventRingChange || last[2].Detail != "virtual nodes removed" {
		t.Fatalf("last[2] = %+v", last[2])
	}
	if got := r.Last(1); len(got) != 1 || got[0].Kind != EventRingChange {
		t.Fatalf("Last(1) = %+v", got)
	}

	counts := r.Counts()
	if counts[EventBackendUp] != 2 || counts[EventBackendDown] != 1 || counts[EventRingChange] != 1 {
		t.Fatalf("counts = %+v", counts)
	}
	if r.Total() != 4 {
		t.Fatalf("total = %d, want 4", r.Total())
	}
}

func TestEventRingNilSafe(t *testing.T) {
	var r *EventRing
	r.Add(time.Now(), EventRingChange, "", "")
	if r.Last(0) != nil || r.Counts() != nil || r.Total() != 0 {
		t.Fatal("nil ring should be inert")
	}
}

func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(time.Now(), EventBackendDown, "b", "")
				r.Last(0)
				r.Counts()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 1600 {
		t.Fatalf("total = %d, want 1600", r.Total())
	}
}
