package secchan

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/egress"
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

// TestShortFrameIsCorrupt: a frame shorter than a GCM tag has no tag to
// look up. It counts as corrupt, on the reliable layer and on a bare Conn,
// and never panics.
func TestShortFrameIsCorrupt(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	if err := cl.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Recv(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, gcmTagSize - 1} {
		if err := prepend(svTr, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("%d-byte frame: recv %v, want ErrEmpty after dropping it", n, err)
		}
		if err := prepend(svTr, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Conn().Recv(); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("%d-byte frame classified as %v", n, err)
		}
	}
	if sv.Stats.Corrupt != 3 || sv.Stats.Duplicates != 0 {
		t.Fatalf("corrupt=%d dup=%d, want 3/0", sv.Stats.Corrupt, sv.Stats.Duplicates)
	}
}

// TestReorderedRecordRedeliveredIsDuplicate: a record accepted ahead of
// sequence through the reorder window is remembered at the sequence number
// it opened at, so a second copy of it is a duplicate, not corruption.
func TestReorderedRecordRedeliveredIsDuplicate(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	for _, m := range []string{"a", "b"} {
		if err := cl.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	q := svTr.in.frames
	q[0], q[1] = q[1], q[0]
	second := append([]byte(nil), q[0]...)
	var got []byte
	for i := 0; i < 2; i++ {
		m, err := sv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m...)
	}
	if string(got) != "ab" || sv.Stats.Reordered != 1 {
		t.Fatalf("delivered %q with %d reordered, want \"ab\" with 1", got, sv.Stats.Reordered)
	}
	if err := prepend(svTr, second); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("redelivered record: recv %v, want ErrEmpty after dropping it", err)
	}
	if sv.Stats.Duplicates != 1 || sv.Stats.Corrupt != 0 || sv.Stats.Delivered != 2 {
		t.Fatalf("dup=%d corrupt=%d delivered=%d, want 1/0/2",
			sv.Stats.Duplicates, sv.Stats.Corrupt, sv.Stats.Delivered)
	}
}

// TestTagKeptBodyChangedIsCorrupt: a frame that keeps an accepted record's
// tag but changes its last body byte finds the tag, fails to open at the
// recorded sequence number, and counts as corrupt, not as a replay.
func TestTagKeptBodyChangedIsCorrupt(t *testing.T) {
	cl, sv, _, svTr := testPair(t, 0)
	if err := cl.Send([]byte("record")); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), svTr.in.frames[0]...)
	forged[len(forged)-gcmTagSize-1] ^= 1
	if _, err := sv.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := prepend(svTr, forged); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Recv(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("forged frame: recv %v, want ErrEmpty after dropping it", err)
	}
	if sv.Stats.Corrupt != 1 || sv.Stats.Duplicates != 0 {
		t.Fatalf("corrupt=%d dup=%d, want 1/0", sv.Stats.Corrupt, sv.Stats.Duplicates)
	}
	if err := prepend(svTr, forged); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Conn().Recv(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("forged frame classified as %v", err)
	}
}

// TestQueuePopReleasesSlot: popping a pipe frame or a denial clears the
// slot it came from, so the backing array does not keep delivered frames
// reachable until the queue is dropped.
func TestQueuePopReleasesSlot(t *testing.T) {
	a, b := NewMemPipe()
	for _, f := range []string{"one", "two"} {
		if err := a.Send([]byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	frames := b.in.frames
	if f, err := b.Recv(); err != nil || string(f) != "one" {
		t.Fatalf("recv %q, %v", f, err)
	}
	if frames[0] != nil {
		t.Fatalf("popped pipe slot still holds %q", frames[0])
	}
	if string(frames[1]) != "two" {
		t.Fatalf("queued slot holds %q, want \"two\"", frames[1])
	}

	q := NewDenialQueue(0)
	for i := uint64(1); i <= 2; i++ {
		if err := q.Push(egress.FrameEgressDenied{Tenant: 4, Dest: "peer/exfil", Rule: egress.RuleDefaultDeny, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	denials := q.frames
	if d, ok := q.Pop(); !ok || d.Seq != 1 {
		t.Fatalf("pop %+v, ok=%v", d, ok)
	}
	if denials[0] != (egress.FrameEgressDenied{}) {
		t.Fatalf("popped denial slot still holds %+v", denials[0])
	}
	if denials[1].Seq != 2 {
		t.Fatalf("queued denial slot holds %+v, want seq 2", denials[1])
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
