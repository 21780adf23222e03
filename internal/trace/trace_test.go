package trace

import "testing"

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("out-of-range kind should be unknown")
	}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Record(Event{Kind: KindAlloc, A: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 100 || r.Total() != 100 {
		t.Fatalf("len=%d total=%d", len(ev), r.Total())
	}
	if ev[42].A != 42 {
		t.Errorf("order broken: %v", ev[42])
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: KindFree, A: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(ev))
	}
	for i, e := range ev {
		if e.A != uint64(12+i) {
			t.Errorf("ring event %d = %d, want %d", i, e.A, 12+i)
		}
	}
	if r.Total() != 20 {
		t.Errorf("Total = %d, want 20", r.Total())
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Event{})
	r.Reset()
	if len(r.Events()) != 0 || r.Total() != 0 {
		t.Errorf("Reset incomplete")
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	a.Record(Event{Kind: KindHashGet, Fn: "a1"})
	b.Record(Event{Kind: KindHashSet, Fn: "b1"})
	b.Record(Event{Kind: KindAlloc, Fn: "b2"})
	a.Merge(b)
	ev := a.Events()
	if len(ev) != 3 || a.Total() != 3 {
		t.Fatalf("merged %d events (total %d), want 3", len(ev), a.Total())
	}
	if ev[0].Fn != "a1" || ev[1].Fn != "b1" || ev[2].Fn != "b2" {
		t.Errorf("merged order wrong: %+v", ev)
	}
	// b is unchanged.
	if b.Total() != 2 || len(b.Events()) != 2 {
		t.Errorf("Merge mutated its argument")
	}
}

func TestRecorderMergeBounded(t *testing.T) {
	a := NewRecorder(3)
	b := NewRecorder(2)
	for i := 0; i < 4; i++ {
		b.Record(Event{Kind: KindHashGet, A: uint64(i)}) // ring keeps 2, 3
	}
	a.Record(Event{Kind: KindHashSet, A: 100})
	a.Merge(b)
	ev := a.Events()
	if len(ev) != 3 {
		t.Fatalf("bounded merge kept %d events, want 3", len(ev))
	}
	if ev[1].A != 2 || ev[2].A != 3 {
		t.Errorf("bounded merge took wrong tail: %+v", ev)
	}
	// Total counts every event ever recorded on either side: 1 + 4.
	if a.Total() != 5 {
		t.Errorf("merged total %d, want 5", a.Total())
	}
}

func TestRecorderCounting(t *testing.T) {
	r := NewRecorder(-1)
	if !r.Counting() || NewRecorder(0).Counting() || NewRecorder(4).Counting() {
		t.Fatal("only a negative capacity makes a counting recorder")
	}
	r.Record(Event{Kind: KindAlloc})
	r.Count(KindFree)
	r.Count(KindFree)
	if len(r.Events()) != 0 || r.Total() != 3 || r.KindTotals()[KindFree] != 2 || r.KindTotals()[KindAlloc] != 1 {
		t.Fatalf("counting recorder: %d events kept, total %d, kinds %v", len(r.Events()), r.Total(), r.KindTotals())
	}

	// Counts merge in both directions; a counting destination keeps no
	// events, a keeping one gets only what the source kept.
	ring := NewRecorder(2)
	for i := 0; i < 3; i++ {
		ring.Record(Event{Kind: KindHashGet, A: uint64(i)})
	}
	r.Merge(ring)
	if len(r.Events()) != 0 || r.Total() != 6 || r.KindTotals()[KindHashGet] != 3 {
		t.Errorf("merge into counting: %d events kept, total %d, kinds %v", len(r.Events()), r.Total(), r.KindTotals())
	}
	all := NewRecorder(0)
	all.Merge(r)
	all.Merge(ring)
	if ev := all.Events(); len(ev) != 2 || ev[0].A != 1 || ev[1].A != 2 || all.Total() != 9 {
		t.Errorf("merge into unbounded: events %+v, total %d", ev, all.Total())
	}
}

func TestKindTotals(t *testing.T) {
	r := NewRecorder(2) // ring evicts, totals must not
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindHashGet})
	}
	r.Record(Event{Kind: KindRegexScan})
	kt := r.KindTotals()
	if kt[KindHashGet] != 5 || kt[KindRegexScan] != 1 {
		t.Errorf("kind totals = %v", kt)
	}
	var sum int64
	for _, n := range kt {
		sum += n
	}
	if sum != r.Total() {
		t.Errorf("kind totals sum %d != Total %d", sum, r.Total())
	}

	// Merge folds in the other recorder's full per-kind history, including
	// events its ring already evicted.
	o := NewRecorder(1)
	for i := 0; i < 3; i++ {
		o.Record(Event{Kind: KindAlloc}) // ring keeps 1 of 3
	}
	r.Merge(o)
	kt = r.KindTotals()
	if kt[KindAlloc] != 3 {
		t.Errorf("merged alloc total = %d, want 3", kt[KindAlloc])
	}
	if kt[KindHashGet] != 5 {
		t.Errorf("merge disturbed hash-get total: %d", kt[KindHashGet])
	}

	r.Reset()
	for _, n := range r.KindTotals() {
		if n != 0 {
			t.Errorf("Reset left kind totals %v", r.KindTotals())
			break
		}
	}
}
