package secchan

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Reliable wraps a Conn with data-shepherding resilience against a lossy,
// duplicating, reordering, corrupting, replaying transport (the untrusted
// proxy/host of §6.3 acting arbitrarily on frames). Confidentiality and
// integrity come from the record layer underneath; Reliable adds
// *availability*:
//
//   - idempotent retransmission keyed on the record sequence numbers: a
//     retransmitted record is the identical ciphertext (nonce = seq), so
//     the receiver can deduplicate it exactly;
//   - a bounded reorder window: records arriving ahead of sequence are
//     buffered and delivered in order;
//   - duplicate/corrupt frames are counted and dropped rather than
//     poisoning the session;
//   - optional retransmit-on-duplicate for the responder side: receiving a
//     duplicate of an already-consumed record is the signal that the peer
//     is retrying because our frames were lost, so we re-send our
//     retained history.
//
// Everything is deterministic and driven by explicit calls — no wall-clock
// timers — so fault schedules replay exactly under the virtual clock.
type Reliable struct {
	c *Conn

	// RetransmitOnDup re-sends retained history when a duplicate of an
	// already-consumed record arrives (responder side only; the initiator
	// retransmits on timeout, which keeps the two sides from ping-ponging
	// retransmissions forever).
	RetransmitOnDup bool

	history map[uint64][]byte // seq -> sent ciphertext
	histLo  uint64            // lowest seq still retained
	ooo     map[uint64][]byte // seq -> plaintext buffered ahead of order

	Stats ReliableStats

	// Rec, when non-nil, receives frame-level flight-recorder events on
	// Track (trace.TrackClient or trace.TrackMonitor). Events never carry
	// frame contents or lengths, so tracing cannot leak or perturb anything.
	Rec   *trace.Recorder
	Track int32

	// Met, when non-nil, tallies frame events into the shared telemetry
	// registry; Attr supplies the tenant label the serving loop currently
	// names (nil or unbound renders as tenant="-1"). Like Rec, recording
	// never charges the virtual clock and never touches frame contents.
	Met  *metrics.Registry
	Attr *metrics.Attr
}

// count tallies one frame event into the registry under the ambient tenant.
func (r *Reliable) count(dir string) {
	if r.Met == nil {
		return
	}
	r.Met.Inc(metrics.FamilyChannelFrames,
		metrics.KV("dir", dir), metrics.KV("tenant", r.Attr.TenantLabel()))
}

// ReliableStats counts what the resilience layer absorbed.
type ReliableStats struct {
	Sent        uint64
	Delivered   uint64
	Duplicates  uint64 // replayed/duplicated records dropped
	Corrupt     uint64 // unauthenticatable frames dropped
	Reordered   uint64 // records buffered out of order
	Retransmits uint64 // frames re-sent from history
}

// Add adds o's counters to s.
func (s *ReliableStats) Add(o ReliableStats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.Duplicates += o.Duplicates
	s.Corrupt += o.Corrupt
	s.Reordered += o.Reordered
	s.Retransmits += o.Retransmits
}

// reorderWindow is how far ahead of the expected sequence number an
// arriving record may be and still be buffered for in-order delivery.
const reorderWindow = 8

// historyCap bounds the retransmission buffer (sent ciphertexts).
const historyCap = 64

// NewReliable wraps an established record connection.
func NewReliable(c *Conn) *Reliable {
	return &Reliable{
		c:       c,
		history: make(map[uint64][]byte),
		ooo:     make(map[uint64][]byte),
	}
}

// Conn exposes the underlying record connection (tests).
func (r *Reliable) Conn() *Conn { return r.c }

// Send seals msg at the next sequence number, retains the ciphertext for
// retransmission, and transmits it. A full downstream queue surfaces as
// ErrQueueFull; the record stays in history so Retransmit can re-offer it.
func (r *Reliable) Send(msg []byte) error {
	seq := r.c.sendSeq
	ct := r.c.sealAt(seq, msg)
	r.c.sendSeq++
	r.history[seq] = ct
	r.Stats.Sent++
	r.Rec.Emit(trace.KindFrameSend, r.Track, "")
	r.count("send")
	for len(r.history) > historyCap {
		delete(r.history, r.histLo)
		r.histLo++
	}
	return r.c.tr.Send(ct)
}

// Retransmit re-sends every retained ciphertext in sequence order. Records
// are bit-identical to the originals, so the receiver deduplicates exactly;
// calling this spuriously is wasteful but never incorrect.
func (r *Reliable) Retransmit() {
	for seq := r.histLo; seq < r.c.sendSeq; seq++ {
		ct, ok := r.history[seq]
		if !ok {
			continue
		}
		if err := r.c.tr.Send(ct); err == nil {
			r.Stats.Retransmits++
			r.Rec.Emit(trace.KindFrameRetransmit, r.Track, "")
			r.count("retransmit")
		}
	}
}

// Recv returns the next in-order message. Duplicates, replays and corrupt
// frames are absorbed (counted in Stats) and draining continues; ErrEmpty
// surfaces once the transport has nothing more queued. Recv never blocks
// and never delivers a record twice or out of order.
func (r *Reliable) Recv() ([]byte, error) {
	for {
		// Deliver anything the reorder buffer has made contiguous.
		if msg, ok := r.ooo[r.c.recvSeq]; ok {
			delete(r.ooo, r.c.recvSeq)
			r.c.recvSeq++
			r.Stats.Delivered++
			r.Rec.Emit(trace.KindFrameRecv, r.Track, "")
			r.count("recv")
			return msg, nil
		}
		ct, err := r.c.tr.Recv()
		if err != nil {
			return nil, err // ErrEmpty (or a transport failure) surfaces as-is
		}
		// In-order record: the common case.
		if msg, err := r.c.openAt(r.c.recvSeq, ct); err == nil {
			r.c.markAccepted(ct, r.c.recvSeq)
			r.c.recvSeq++
			r.Stats.Delivered++
			r.Rec.Emit(trace.KindFrameRecv, r.Track, "")
			r.count("recv")
			return msg, nil
		}
		// Duplicate of something already consumed (network duplication or a
		// replaying adversary — indistinguishable, both dropped). For the
		// responder it also means the peer may be missing our frames.
		if r.c.wasAccepted(ct) {
			r.Stats.Duplicates++
			r.Rec.Emit(trace.KindFrameDrop, r.Track, "duplicate")
			r.count("drop")
			if r.RetransmitOnDup {
				r.Retransmit()
			}
			continue
		}
		// Ahead of sequence? Try the reorder window.
		buffered := false
		for k := uint64(1); k <= reorderWindow; k++ {
			seq := r.c.recvSeq + k
			if _, have := r.ooo[seq]; have {
				continue
			}
			if msg, err := r.c.openAt(seq, ct); err == nil {
				r.c.markAccepted(ct, seq)
				r.ooo[seq] = msg
				r.Stats.Reordered++
				r.Rec.Emit(trace.KindFrameDrop, r.Track, "reorder")
				r.count("reorder")
				buffered = true
				break
			}
		}
		if buffered {
			continue
		}
		// Unauthenticatable at every admissible sequence number: hostile
		// corruption/truncation. Drop it and keep draining.
		r.Stats.Corrupt++
		r.Rec.Emit(trace.KindFrameDrop, r.Track, "corrupt")
		r.count("drop")
	}
}

// String summarizes the stats (debug logging in the chaos harness).
func (s ReliableStats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dup=%d corrupt=%d reorder=%d rexmit=%d",
		s.Sent, s.Delivered, s.Duplicates, s.Corrupt, s.Reordered, s.Retransmits)
}
