package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/cache"
)

// TestParsePageCanonical is the router/backend agreement table: both
// binaries key a request by PageKey(ParsePage(rawQuery)), so every
// spelling of a page must land on one key and everything else must be
// rejected by both (or be "no page" for both).
func TestParsePageCanonical(t *testing.T) {
	for _, tc := range []struct {
		query string
		page  int // -1: no page named
		bad   bool
	}{
		{"page=7", 7, false},
		{"page=07", 7, false},
		{"page=%2B7", 7, false}, // "+7"
		{"page=-3", 0, true},
		{"page=abc", 0, true},
		{"page=1e3", 0, true},
		{"page=99999999999999999999", 0, true},
		{"page=", -1, false},
		{"", -1, false},
		{"other=1", -1, false},
		{"page=7&page=7", 0, true},
		{"page=7&page=8", 0, true},
		{"page=%zz", 0, true},
		{"x=1&page=4095", 4095, false},
		{"page=4096", 4096, false}, // past the precomputed key table
	} {
		page, err := ParsePage(tc.query)
		if tc.bad {
			if err == nil {
				t.Errorf("ParsePage(%q) = %d, want an error", tc.query, page)
			}
			continue
		}
		if err != nil || page != tc.page {
			t.Errorf("ParsePage(%q) = %d, %v; want %d", tc.query, page, err, tc.page)
		}
	}
	for page, want := range map[int]string{0: "page:0", 7: "page:7", 4095: "page:4095", 4096: "page:4096", 123456: "page:123456"} {
		if got := PageKey(page); got != want {
			t.Errorf("PageKey(%d) = %q, want %q", page, got, want)
		}
	}
}

// TestServeCopiesOutBeforeRelease: an uncached body lands in the caller's
// buffer, and stays what the worker rendered after the worker has gone
// on to render something else into its recycled buffers.
func TestServeCopiesOutBeforeRelease(t *testing.T) {
	s := NewScheduler(cachedPool(t, 1), Config{QueueDepth: 2})
	ref := cachedPool(t, 1)
	w := ref.Acquire()
	want3, _, _ := w.ServePageSpanCtx(context.Background(), 3, false)
	want3 = append([]byte(nil), want3...)
	ref.Release(w)

	var first, second []byte
	r1, err := s.Serve(context.Background(), Request{Page: 3}, &first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), Request{Page: 9}, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Body, want3) || !bytes.Equal(first, want3) {
		t.Error("page 3's body changed once the worker rendered page 9")
	}
	if r1.Cache != cache.Bypass || r1.Span.Worker != 0 || r1.Span.Wall <= 0 {
		t.Errorf("uncached response = outcome %v, span %+v", r1.Cache, r1.Span)
	}
}

// TestServeStallHoldsWorkerAndHonoursDeadline: the stall is part of the
// request (the caller's deadline expiring inside it sheds as
// ErrDeadline), and
// a cached request without a page identity is refused rather than
// cached under a key that names no page.
func TestServeStallHoldsWorkerAndHonoursDeadline(t *testing.T) {
	s := NewScheduler(cachedPool(t, 1), Config{QueueDepth: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var buf []byte
	_, err := s.Serve(ctx, Request{Page: 1, Stall: 2 * time.Second}, &buf)
	if err != ErrDeadline || OutcomeOf(err) != OutcomeDeadline {
		t.Errorf("deadline inside the stall: err = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.ShedDeadline != 1 || st.Served != 0 {
		t.Errorf("stats after the stalled request: %+v", st)
	}
	c := cache.New(cache.Config{Capacity: 4})
	if _, err := s.Serve(context.Background(), Request{Page: -1, Cache: c}, nil); err == nil || c.Stats().Entries != 0 {
		t.Errorf("cached request without a page: err = %v, %d entries cached", err, c.Stats().Entries)
	}
	checkPoolIntact(t, s.Pool())
}
