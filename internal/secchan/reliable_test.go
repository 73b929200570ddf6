package secchan

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// testPair builds a connected reliable pair over bounded in-memory pipes.
func testPair(t *testing.T, cap int) (cl, sv *Reliable, clTr, svTr *MemPipe) {
	t.Helper()
	clTr, svTr = NewMemPipeCap(cap)
	c2s, s2c := DeriveKeys([]byte("shared-secret"), []byte("transcript"))
	cConn, err := NewConn(clTr, c2s, s2c, 256)
	if err != nil {
		t.Fatal(err)
	}
	sConn, err := NewConn(svTr, s2c, c2s, 256)
	if err != nil {
		t.Fatal(err)
	}
	return NewReliable(cConn), NewReliable(sConn), clTr, svTr
}

func TestReliableRoundTrip(t *testing.T) {
	cl, sv, _, _ := testPair(t, 0)
	for i := 0; i < 5; i++ {
		if err := cl.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := sv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("msg-%d", i); string(got) != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("drained recv: %v", err)
	}
}

func TestReliableDropThenRetransmit(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	if err := cl.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	// The network eats the frame.
	if _, err := svTr.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected empty, got %v", err)
	}
	// Sender times out and retransmits: identical ciphertext, delivered once.
	cl.Retransmit()
	got, err := sv.Recv()
	if err != nil || string(got) != "lost" {
		t.Fatalf("after retransmit: %q %v", got, err)
	}
	if cl.Stats.Retransmits != 1 {
		t.Fatalf("retransmits = %d", cl.Stats.Retransmits)
	}
}

func TestReliableDuplicatesSuppressed(t *testing.T) {
	cl, sv, _, _ := testPair(t, 0)
	if err := cl.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	cl.Retransmit() // duplicate in flight
	cl.Retransmit() // and another
	got, err := sv.Recv()
	if err != nil || string(got) != "once" {
		t.Fatalf("first recv: %q %v", got, err)
	}
	if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("duplicate delivered: %v", err)
	}
	if sv.Stats.Duplicates != 2 {
		t.Fatalf("duplicates = %d", sv.Stats.Duplicates)
	}
	if sv.Stats.Delivered != 1 {
		t.Fatalf("delivered = %d", sv.Stats.Delivered)
	}
}

func TestReliableReorderWindow(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	for i := 0; i < 3; i++ {
		if err := cl.Send([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Adversary reverses the queue.
	q := svTr.in.frames
	for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
		q[i], q[j] = q[j], q[i]
	}
	var got []byte
	for i := 0; i < 3; i++ {
		m, err := sv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m...)
	}
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("out-of-order delivery: %q", got)
	}
	if sv.Stats.Reordered == 0 {
		t.Fatal("reorder buffer unused")
	}
}

func TestReliableCorruptDroppedAndCounted(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	if err := cl.Send([]byte("good")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the queued frame, then retransmit the good copy behind it.
	svTr.in.frames[0][3] ^= 0xFF
	cl.Retransmit()
	got, err := sv.Recv()
	if err != nil || string(got) != "good" {
		t.Fatalf("recv through corruption: %q %v", got, err)
	}
	if sv.Stats.Corrupt != 1 {
		t.Fatalf("corrupt = %d", sv.Stats.Corrupt)
	}
}

func TestConnRecvTypedReplayError(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	if err := cl.Send([]byte("secret record")); err != nil {
		t.Fatal(err)
	}
	captured := make([]byte, len(svTr.in.frames[0]))
	copy(captured, svTr.in.frames[0])
	if _, err := sv.Conn().Recv(); err != nil {
		t.Fatal(err)
	}
	// Replaying proxy re-injects the captured ciphertext.
	if err := prepend(svTr, captured); err != nil {
		t.Fatal(err)
	}
	_, err := sv.Conn().Recv()
	if !errors.Is(err, ErrReplay) {
		t.Fatalf("replay classified as %v", err)
	}
	// A never-accepted mangled frame classifies as corruption instead.
	captured[7] ^= 1
	if err := prepend(svTr, captured); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Conn().Recv(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("tamper classified as %v", err)
	}
}

func TestMemPipeBackpressure(t *testing.T) {
	a, b := NewMemPipeCap(2)
	if err := a.Send([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow: %v", err)
	}
	if a.Drops() != 1 {
		t.Fatalf("drops = %d", a.Drops())
	}
	// Draining frees capacity again.
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("3")); err != nil {
		t.Fatalf("post-drain send: %v", err)
	}
}

func TestReliableHistoryBounded(t *testing.T) {
	cl, _, _, _ := testPair(t, 0)
	for i := 0; i < historyCap+16; i++ {
		if err := cl.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(cl.history) != historyCap {
		t.Fatalf("history holds %d records, want %d", len(cl.history), historyCap)
	}
}
