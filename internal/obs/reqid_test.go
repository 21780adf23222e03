package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestIDSourceUniqueConcurrent is the satellite acceptance test: 64
// goroutines minting IDs concurrently never collide, and every ID is
// well-formed.
func TestIDSourceUniqueConcurrent(t *testing.T) {
	const goroutines, perG = 64, 512
	src := NewIDSource()
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, perG)
			for i := range out {
				out[i] = src.Next()
			}
			ids[g] = out
		}(g)
	}
	wg.Wait()

	seen := make(map[string]bool, goroutines*perG)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate request ID %q", id)
			}
			seen[id] = true
			if len(id) != 25 || id[16] != '-' {
				t.Fatalf("malformed ID %q", id)
			}
			if SanitizeRequestID(id) != id {
				t.Fatalf("minted ID %q does not survive sanitization", id)
			}
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("minted %d unique IDs, want %d", len(seen), goroutines*perG)
	}
}

// TestIDSourcesDistinctPrefixes: two sources (two processes) almost
// surely differ in prefix, so cross-process IDs stay distinct too.
func TestIDSourcesDistinctPrefixes(t *testing.T) {
	a, b := NewIDSource(), NewIDSource()
	if a.Next()[:16] == b.Next()[:16] {
		t.Fatal("two fresh ID sources share a prefix (entropy failure?)")
	}
}

func TestIDSourceNil(t *testing.T) {
	var s *IDSource
	if got := s.Next(); got != "" {
		t.Fatalf("nil source minted %q", got)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"abc-123", "abc-123"},
		{"evil\"quote", "evil_quote"},
		{"back\\slash", "back_slash"},
		{"new\nline\ttab", "new_line_tab"},
		{"caf\xc3\xa9", "caf__"}, // non-ASCII bytes neutralized
		{strings.Repeat("x", 200), strings.Repeat("x", 64)},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Fatalf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// FuzzSanitizeRequestID: whatever comes in, what goes out is at most
// maxRequestIDLen bytes, each printable ASCII other than '"' and '\',
// and sanitizing it again changes nothing.
func FuzzSanitizeRequestID(f *testing.F) {
	for _, seed := range []string{"", "abc-123", "evil\"quote", "back\\slash", "new\nline\ttab", "caf\xc3\xa9", strings.Repeat("x", 200), "\x00\x7f\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		got := SanitizeRequestID(id)
		if len(got) > maxRequestIDLen {
			t.Fatalf("SanitizeRequestID(%q) is %d bytes, over %d", id, len(got), maxRequestIDLen)
		}
		for i := 0; i < len(got); i++ {
			if c := got[i]; c < 0x21 || c > 0x7e || c == '"' || c == '\\' {
				t.Fatalf("SanitizeRequestID(%q) = %q keeps byte %#x at %d", id, got, c, i)
			}
		}
		if again := SanitizeRequestID(got); again != got {
			t.Fatalf("not idempotent: %q -> %q -> %q", id, got, again)
		}
	})
}
