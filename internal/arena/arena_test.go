package arena

import (
	"bytes"
	"testing"
)

// held is the chunk capacity the arena currently owns.
func (a *Arena) held() int { return len(a.chunks) * a.chunkSize }

func TestMakeZeroesReusedMemory(t *testing.T) {
	a := New(64, 0)
	b := a.Make(32)
	for i := range b {
		b[i] = 0xAA
	}
	a.Reset()
	b2 := a.Make(32)
	if !bytes.Equal(b2, make([]byte, 32)) {
		t.Fatalf("Make after Reset returned dirty bytes: %x", b2)
	}
}

func TestBufCapacityAndIsolation(t *testing.T) {
	a := New(128, 0)
	b1 := a.Buf(16)
	b2 := a.Buf(16)
	b1 = append(b1, bytes.Repeat([]byte{1}, 16)...)
	b2 = append(b2, bytes.Repeat([]byte{2}, 16)...)
	if bytes.Contains(b1, []byte{2}) || bytes.Contains(b2, []byte{1}) {
		t.Fatal("adjacent Buf carves overlap")
	}
	if cap(b1) != 16 {
		t.Fatalf("Buf(16) cap = %d, want exactly 16 (full-slice carve)", cap(b1))
	}
}

func TestOversizeFallsBackToHeap(t *testing.T) {
	a := New(64, 0)
	b := a.Make(1024)
	if len(b) != 1024 {
		t.Fatalf("oversize Make length = %d", len(b))
	}
	held := a.held()
	if held != 0 {
		t.Fatalf("oversize Make should not allocate chunks; held %d bytes", held)
	}
}

func TestResetReusesChunks(t *testing.T) {
	a := New(64, 0)
	for i := 0; i < 10; i++ {
		a.Make(40)
		a.Make(40) // forces a second chunk
		a.Reset()
	}
	held := a.held()
	if held != 128 {
		t.Fatalf("held = %d bytes, want 128 (two chunks, reused across resets)", held)
	}
}

func TestRetainBoundReleasesChunks(t *testing.T) {
	a := New(64, 128) // retain at most 2 chunks
	for i := 0; i < 5; i++ {
		a.Make(40) // one chunk each
	}
	held := a.held()
	if held != 5*64 {
		t.Fatalf("pre-reset held = %d, want %d", held, 5*64)
	}
	a.Reset()
	held = a.held()
	if held != 128 {
		t.Fatalf("post-reset held = %d, want 128 (retain bound)", held)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	a := New(0, 0)
	// Warm the arena so steady state needs no chunk growth.
	a.Make(1024)
	a.Reset()
	n := testing.AllocsPerRun(100, func() {
		b := a.Buf(512)
		b = append(b, "payload"...)
		_ = a.Make(256)
		_ = append(a.Buf(len(b)), b...)
		a.Reset()
	})
	if n != 0 {
		t.Fatalf("steady-state arena cycle allocates %v/op, want 0", n)
	}
}
