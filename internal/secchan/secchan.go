// Package secchan implements Erebor's end-to-end secure data channel
// (§6.3): an attestation-authenticated key exchange between a remote client
// and the in-CVM monitor, an AES-256-GCM record layer with fixed-length
// padding (to hide result sizes, AV3), and transport abstractions including
// the untrusted in-CVM proxy that relays opaque ciphertext.
//
// Crypto is stdlib-only: X25519 (crypto/ecdh) for key agreement, HKDF built
// from crypto/hmac+sha256, ECDSA quotes from internal/attest.
package secchan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// DefaultPadBlock is the record padding granularity (§6.3: the monitor pads
// output to fixed lengths before returning it to the client).
const DefaultPadBlock = 4096

// --- HKDF (RFC 5869, SHA-256) ------------------------------------------------

// hkdfExtract computes PRK = HMAC(salt, ikm).
func hkdfExtract(salt, ikm []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

// hkdfExpand derives n bytes of keying material from prk and info.
func hkdfExpand(prk, info []byte, n int) []byte {
	var out, t []byte
	var ctr byte
	for len(out) < n {
		ctr++
		m := hmac.New(sha256.New, prk)
		m.Write(t)
		m.Write(info)
		m.Write([]byte{ctr})
		t = m.Sum(nil)
		out = append(out, t...)
	}
	return out[:n]
}

// DeriveKeys produces the two direction keys from an ECDH shared secret and
// the handshake transcript.
func DeriveKeys(shared, transcript []byte) (clientToServer, serverToClient []byte) {
	prk := hkdfExtract([]byte("erebor-secchan-v1"), shared)
	km := hkdfExpand(prk, append([]byte("keys|"), transcript...), 64)
	return km[:32], km[32:]
}

// --- typed error taxonomy ------------------------------------------------------

// The channel stack distinguishes failure classes so callers can decide
// what is retriable (ErrEmpty, ErrTimeout after more retries), what is
// expected hostile noise to drop and count (ErrCorruptFrame, ErrReplay),
// and what is backpressure (ErrQueueFull).
var (
	// ErrEmpty is returned by non-blocking transports with nothing queued.
	ErrEmpty = errors.New("secchan: transport empty")
	// ErrTimeout reports a bounded wait (virtual-clock) that expired.
	ErrTimeout = errors.New("secchan: timed out")
	// ErrCorruptFrame reports a record that failed authentication and does
	// not match any previously accepted ciphertext (tampering/truncation).
	ErrCorruptFrame = errors.New("secchan: corrupt frame")
	// ErrReplay reports a ciphertext identical to one already accepted at an
	// earlier sequence number (a replaying proxy/host).
	ErrReplay = errors.New("secchan: record replayed")
	// ErrQueueFull reports backpressure: a bounded queue refused a frame.
	ErrQueueFull = errors.New("secchan: queue full")
)

// --- transport -----------------------------------------------------------------

// Transport moves opaque frames between the two channel ends.
type Transport interface {
	Send(frame []byte) error
	Recv() ([]byte, error)
}

// DefaultQueueCap bounds in-memory transport queues. Generous — a session
// exchanges a handful of frames — but finite, so a hostile or buggy peer
// flooding the pipe hits ErrQueueFull instead of growing memory without
// limit.
const DefaultQueueCap = 1024

// pipeQueue is one bounded direction of a MemPipe pair.
type pipeQueue struct {
	frames [][]byte
	cap    int
	drops  uint64
	// maxLen is the occupancy high watermark (bounded-resource telemetry).
	maxLen int
}

func (q *pipeQueue) push(f []byte) error {
	if q.cap > 0 && len(q.frames) >= q.cap {
		q.drops++
		return ErrQueueFull
	}
	q.frames = append(q.frames, f)
	if len(q.frames) > q.maxLen {
		q.maxLen = len(q.frames)
	}
	return nil
}

// pop clears the slot it takes before reslicing, so a delivered frame is
// not kept reachable through the backing array until the pipe is dropped.
func (q *pipeQueue) pop() ([]byte, error) {
	if len(q.frames) == 0 {
		return nil, ErrEmpty
	}
	f := q.frames[0]
	q.frames[0] = nil
	q.frames = q.frames[1:]
	return f, nil
}

// MemPipe is an in-memory duplex transport pair with bounded queues.
type MemPipe struct {
	in  *pipeQueue
	out *pipeQueue
	// Tap, if set, observes every sent frame (the untrusted proxy/host).
	Tap func(frame []byte)
}

// NewMemPipe returns the two connected ends (DefaultQueueCap per direction).
func NewMemPipe() (a, b *MemPipe) { return NewMemPipeCap(DefaultQueueCap) }

// NewMemPipeCap is for the reliable-channel and fault-injection tests,
// which need a bounded or unbounded queue; NewMemPipe is it at
// DefaultQueueCap. It returns a connected pair whose per-direction queues
// hold at most cap frames (0 = unbounded).
func NewMemPipeCap(cap int) (a, b *MemPipe) {
	q1 := &pipeQueue{cap: cap}
	q2 := &pipeQueue{cap: cap}
	return &MemPipe{in: q1, out: q2}, &MemPipe{in: q2, out: q1}
}

// Send implements Transport; it returns ErrQueueFull when the peer's
// inbound queue is at capacity (the frame is counted and discarded).
func (p *MemPipe) Send(frame []byte) error {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	if p.Tap != nil {
		p.Tap(cp)
	}
	return p.out.push(cp)
}

// Recv implements Transport.
func (p *MemPipe) Recv() ([]byte, error) { return p.in.pop() }

// Drops reports frames discarded at this pipe pair's bounded queues (both
// directions).
func (p *MemPipe) Drops() uint64 { return p.in.drops + p.out.drops }

// HighWater reports the maximum queue occupancy this pipe pair ever
// reached, across both directions (the proxy-queue watermark gauge).
func (p *MemPipe) HighWater() uint64 {
	hw := p.in.maxLen
	if p.out.maxLen > hw {
		hw = p.out.maxLen
	}
	return uint64(hw)
}

// DefaultDenialQueueCap bounds a lane's denial-frame queue. Deliberately
// small: denials are an error signal, not a data path, and a sandbox
// spamming denied destinations must hit backpressure on its own queue
// instead of growing memory.
const DefaultDenialQueueCap = 32

// DenialQueue is the bounded queue of typed FrameEgressDenied frames a
// lane's proxy emits back toward the sandbox. It reuses the PR 1
// backpressure contract: a full queue refuses the frame with ErrQueueFull
// (counted), and overflow on one lane never stalls another lane's pump.
type DenialQueue struct {
	frames []egress.FrameEgressDenied
	cap    int
	drops  uint64
}

// NewDenialQueue builds a queue holding at most cap denials
// (0 = DefaultDenialQueueCap).
func NewDenialQueue(cap int) *DenialQueue {
	if cap <= 0 {
		cap = DefaultDenialQueueCap
	}
	return &DenialQueue{cap: cap}
}

// Push enqueues one denial; a full queue counts the loss and returns
// ErrQueueFull.
func (q *DenialQueue) Push(d egress.FrameEgressDenied) error {
	if len(q.frames) >= q.cap {
		q.drops++
		return ErrQueueFull
	}
	q.frames = append(q.frames, d)
	return nil
}

// Pop dequeues the oldest denial (ok=false when empty).
func (q *DenialQueue) Pop() (egress.FrameEgressDenied, bool) {
	if len(q.frames) == 0 {
		return egress.FrameEgressDenied{}, false
	}
	d := q.frames[0]
	q.frames[0] = egress.FrameEgressDenied{} // as in pipeQueue.pop
	q.frames = q.frames[1:]
	return d, true
}

// Len reports queued denials; Drops reports denials refused at capacity.
func (q *DenialQueue) Len() int { return len(q.frames) }
func (q *DenialQueue) Drops() uint64 {
	if q == nil {
		return 0
	}
	return q.drops
}

// EgressFault is the proxy-edge fault vocabulary the chaos injector feeds
// into a lane (secchan cannot import faultinject — the dependency runs the
// other way — so the classes that act *at* the proxy are typed here).
type EgressFault int

// Proxy-edge fault classes.
const (
	// EgressFaultNone leaves the frame alone.
	EgressFaultNone EgressFault = iota
	// EgressFaultRedirect steers the frame at egress.RedirectDest instead
	// of the lane's configured destination (a compromised proxy trying to
	// exfiltrate; the policy must deny it).
	EgressFaultRedirect
	// EgressFaultPolicyCorrupt corrupts the lane's loaded policy copy; the
	// checksum seal makes every later decision fail closed.
	EgressFaultPolicyCorrupt
)

// Proxy is the untrusted in-CVM relay: it forwards frames between an
// outer (client-facing) and inner (monitor-facing) transport and records
// everything it sees. It has no keys; tests assert it never observes
// plaintext.
//
// When a Policy is attached the lane becomes an enforcement point: every
// inner→outer (egress) frame is checked against the tenant's compiled
// deny-by-default allowlist before it may leave. A denial is not a drop —
// the frame is withheld, a typed egress.FrameEgressDenied is queued back
// toward the sandbox on the bounded Denials queue, and the decision is
// recorded in the metrics registry, the flight recorder and the I8 ledger.
// With Policy nil the proxy behaves exactly as before (legacy relay).
type Proxy struct {
	Outer, Inner Transport
	Seen         [][]byte
	// Drops counts frames the proxy lost to downstream backpressure
	// (bounded queues refusing the relay).
	Drops uint64
	// Forwarded counts frames actually relayed (both directions), the
	// counterpart of Drops; together they make per-lane throughput
	// observable without tracing.
	Forwarded uint64
	// Denied counts egress frames withheld by the policy on this lane.
	Denied uint64

	// Policy is the session's compiled egress policy (nil = no
	// enforcement). Dest labels where this lane's egress frames are bound
	// and Tenant labels the session for metrics/denials.
	Policy *egress.Policy
	Dest   egress.Destination
	Tenant int
	// Denials, when non-nil, receives the typed denial frames.
	Denials *DenialQueue
	// Ledger, when non-nil, records every decision for the I8 watchdog.
	Ledger *egress.Ledger
	// FaultFn, when non-nil, draws one proxy-edge chaos fault per egress
	// frame (wired by faultinject.Injector.BindProxy).
	FaultFn func() EgressFault
	// Met/Rec mirror the Reliable layer's optional telemetry sinks.
	Met *metrics.Registry
	Rec *trace.Recorder
}

// countFrame tallies one relay outcome in the registry (nil-safe).
func (p *Proxy) countFrame(dir, outcome string) {
	p.Met.Inc(metrics.FamilyProxyFrames,
		metrics.KV("dir", dir), metrics.KV("outcome", outcome))
}

// PumpOnce relays one pending frame in each direction, if present, and
// reports whether anything moved. The outer→inner (ingress) direction is
// never policed — the policy governs what leaves, not what arrives — while
// every inner→outer frame passes the egress check.
func (p *Proxy) PumpOnce() bool {
	moved := false
	if f, err := p.Outer.Recv(); err == nil {
		moved = true
		p.Seen = append(p.Seen, f)
		if err := p.Inner.Send(f); err != nil {
			p.Drops++
			p.countFrame("ingress", "dropped")
		} else {
			p.Forwarded++
			p.countFrame("ingress", "forwarded")
		}
	}
	if f, err := p.Inner.Recv(); err == nil {
		moved = true
		p.Seen = append(p.Seen, f)
		p.egress(f)
	}
	p.noteQueueDepth()
	return moved
}

// noteQueueDepth publishes the lane's bounded-queue high watermark. Only
// bare MemPipe transports expose occupancy; a fault-injection wrapper on
// the untrusted hop simply goes unmetered (the inner hop never wraps).
func (p *Proxy) noteQueueDepth() {
	if p.Met == nil {
		return
	}
	var hw uint64
	if mp, ok := p.Outer.(*MemPipe); ok {
		hw = mp.HighWater()
	}
	if mp, ok := p.Inner.(*MemPipe); ok {
		if w := mp.HighWater(); w > hw {
			hw = w
		}
	}
	p.Met.SetMax(metrics.FamilyHighWater, hw,
		metrics.KV("resource", metrics.ResourceProxyQueue))
}

// egress applies the proxy-edge fault schedule and the egress policy to one
// outbound frame, then forwards or withholds it.
func (p *Proxy) egress(f []byte) {
	dst := p.Dest
	if p.FaultFn != nil {
		switch p.FaultFn() {
		case EgressFaultRedirect:
			// A hostile relay re-aims the frame; the policy decides on the
			// *actual* destination, so the redirect is what gets denied.
			dst = egress.RedirectDest
		case EgressFaultPolicyCorrupt:
			if p.Policy != nil {
				// The lane's loaded copy goes bad; the compiled seal makes
				// every subsequent decision fail closed (deny).
				p.Policy = p.Policy.Corrupt()
			}
		}
	}
	if p.Policy != nil {
		dec := p.Policy.Decide(dst)
		p.Ledger.Record(p.Tenant, dst, dec)
		p.Met.Inc(metrics.FamilyEgressDecisions,
			metrics.KV("tenant", metrics.TenantLabelOf(p.Tenant)),
			metrics.KV("rule", dec.Rule),
			metrics.KV("verdict", dec.Verdict()))
		p.Rec.Emit(trace.KindEgress, trace.TrackServer, dec.Verdict()+"/"+dec.Rule)
		if !dec.Allowed {
			p.Denied++
			p.countFrame("egress", "denied")
			if p.Denials != nil {
				_ = p.Denials.Push(egress.FrameEgressDenied{
					Tenant: p.Tenant, Dest: dst.String(), Rule: dec.Rule, Seq: p.Denied,
				})
			}
			return
		}
	}
	if err := p.Outer.Send(f); err != nil {
		p.Drops++
		p.countFrame("egress", "dropped")
	} else {
		p.Forwarded++
		p.countFrame("egress", "forwarded")
	}
}

// ProxyStats is the per-lane relay tally.
type ProxyStats struct {
	Forwarded, Dropped, Denied, DenialDrops uint64
}

// Stats snapshots the lane's counters.
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Forwarded: p.Forwarded, Dropped: p.Drops,
		Denied: p.Denied, DenialDrops: p.Denials.Drops(),
	}
}

// MuxProxy drives many per-session relays as one unit: each pump round
// moves at most one frame per direction per lane, in lane order, so N
// concurrent handshakes share the untrusted hop fairly and a busy lane can
// never starve the others. The serving path multiplexes its whole tenant
// fleet through one MuxProxy.
type MuxProxy struct {
	lanes []*Proxy
}

// Add appends a lane (one session's proxy) to the mux.
func (m *MuxProxy) Add(p *Proxy) { m.lanes = append(m.lanes, p) }

// Reset drops every lane so the mux can be rebuilt for the next round
// (sessions come and go as tenants turn over). The slots are nilled before
// truncating: a bare `lanes[:0]` keeps the old *Proxy pointers — and their
// Seen capture buffers — reachable through the backing array for as long as
// the mux lives, which on a long-running server is a per-turnover leak.
func (m *MuxProxy) Reset() {
	for i := range m.lanes {
		m.lanes[i] = nil
	}
	m.lanes = m.lanes[:0]
}

// PumpRound relays one pending frame in each direction on every lane and
// reports whether anything moved anywhere.
func (m *MuxProxy) PumpRound() bool {
	moved := false
	for _, p := range m.lanes {
		if p.PumpOnce() {
			moved = true
		}
	}
	return moved
}

// PumpAll pumps rounds until the whole mux goes quiescent or maxRounds is
// spent, returning the number of rounds that moved at least one frame. The
// bound guarantees termination under hostile frame duplication.
func (m *MuxProxy) PumpAll(maxRounds int) int {
	busy := 0
	for i := 0; i < maxRounds; i++ {
		if !m.PumpRound() {
			return busy
		}
		busy++
	}
	return busy
}

// --- record layer ----------------------------------------------------------------

// Conn is one authenticated-encryption direction pair over a transport.
type Conn struct {
	tr       Transport
	sealKey  cipher.AEAD
	openKey  cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64
	PadBlock int

	// accepted maps the GCM tag of each record already authenticated and
	// delivered to the sequence number it opened at, letting Recv
	// distinguish a replayed record (ErrReplay) from hostile tampering
	// (ErrCorruptFrame).
	accepted map[[gcmTagSize]byte]uint64
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

// NewConn builds a connection with the given send/receive keys.
func NewConn(tr Transport, sendKey, recvKey []byte, padBlock int) (*Conn, error) {
	sk, err := newAEAD(sendKey)
	if err != nil {
		return nil, fmt.Errorf("secchan: send key: %w", err)
	}
	rk, err := newAEAD(recvKey)
	if err != nil {
		return nil, fmt.Errorf("secchan: recv key: %w", err)
	}
	if padBlock <= 0 {
		padBlock = DefaultPadBlock
	}
	return &Conn{
		tr: tr, sealKey: sk, openKey: rk, PadBlock: padBlock,
		accepted: make(map[[gcmTagSize]byte]uint64),
	}, nil
}

func nonceFor(seq uint64) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// gcmTagSize is the AES-GCM tag Seal appends to a record.
const gcmTagSize = 16

// Pad frames to a multiple of PadBlock: 4-byte length prefix + payload +
// zero padding. The one buffer's capacity leaves room for the GCM tag, so
// sealAt seals it in place.
func pad(payload []byte, block int) []byte {
	total := ((4 + len(payload) + block - 1) / block) * block
	padded := make([]byte, total, total+gcmTagSize)
	binary.BigEndian.PutUint32(padded, uint32(len(payload)))
	copy(padded[4:], payload)
	return padded
}

func unpad(raw []byte) ([]byte, error) {
	if len(raw) < 4 {
		return nil, errors.New("secchan: record too short")
	}
	n := binary.BigEndian.Uint32(raw)
	if int(n) > len(raw)-4 {
		return nil, errors.New("secchan: record length prefix corrupt")
	}
	return raw[4 : 4+n], nil
}

// sealAt produces the ciphertext for msg at an explicit sequence number.
// Sealing the same (seq, msg) twice yields identical bytes — the basis of
// idempotent retransmission (the nonce is the sequence number, so a
// retransmit is a bit-for-bit duplicate, never a nonce reuse with new data).
func (c *Conn) sealAt(seq uint64, msg []byte) []byte {
	padded := pad(msg, c.PadBlock)
	return c.sealKey.Seal(padded[:0], nonceFor(seq), padded, nil)
}

// openAt attempts to authenticate ct at an explicit sequence number and
// returns the unpadded message.
func (c *Conn) openAt(seq uint64, ct []byte) ([]byte, error) {
	pt, err := c.openKey.Open(nil, nonceFor(seq), ct, nil)
	if err != nil {
		return nil, err
	}
	return unpad(pt)
}

// tagOf returns the GCM tag sealed at the end of ct; ct must hold at least
// one tag.
func tagOf(ct []byte) [gcmTagSize]byte {
	return [gcmTagSize]byte(ct[len(ct)-gcmTagSize:])
}

// markAccepted records a ciphertext that opened at seq so later duplicates
// classify as replays. Keying on the tag costs no pass over the record.
func (c *Conn) markAccepted(ct []byte, seq uint64) {
	c.accepted[tagOf(ct)] = seq
}

// wasAccepted reports whether ct was already authenticated and delivered:
// its tag names an accepted record and it opens at that record's sequence
// number. Only the sender seals at a sequence number, and it seals each one
// once, so a frame that opens there is that record bit for bit; a frame that
// keeps a tag but changes a byte fails to open and stays corrupt.
func (c *Conn) wasAccepted(ct []byte) bool {
	if len(ct) < gcmTagSize {
		return false
	}
	seq, ok := c.accepted[tagOf(ct)]
	if !ok {
		return false
	}
	_, err := c.openKey.Open(nil, nonceFor(seq), ct, nil)
	return err == nil
}

// Send pads, seals and transmits one message.
func (c *Conn) Send(msg []byte) error {
	ct := c.sealAt(c.sendSeq, msg)
	c.sendSeq++
	return c.tr.Send(ct)
}

// Recv receives, opens and unpads one message. Authentication failures are
// classified: a ciphertext already delivered at an earlier sequence number
// returns ErrReplay (and is never delivered twice); anything else returns
// ErrCorruptFrame.
func (c *Conn) Recv() ([]byte, error) {
	ct, err := c.tr.Recv()
	if err != nil {
		return nil, err
	}
	msg, err := c.openAt(c.recvSeq, ct)
	if err != nil {
		if c.wasAccepted(ct) {
			return nil, fmt.Errorf("secchan: ciphertext for consumed sequence re-delivered: %w", ErrReplay)
		}
		return nil, fmt.Errorf("secchan: record authentication failed: %w", ErrCorruptFrame)
	}
	c.markAccepted(ct, c.recvSeq)
	c.recvSeq++
	return msg, nil
}

// --- attested handshake -------------------------------------------------------------

// ReportDataFor binds the handshake into the attestation report:
// SHA-256(clientNonce || clientECDHPub || serverECDHPub), zero-padded to
// ReportDataSize. The client's ECDH share must be covered too: otherwise a
// tampering relay can substitute it in flight and both sides "complete"
// the handshake holding different keys (a black-holed session at best,
// client impersonation toward the sandbox at worst) — found by the chaos
// suite corrupting hello frames.
func ReportDataFor(hello *ClientHello, serverPub []byte) [tdx.ReportDataSize]byte {
	h := sha256.New()
	h.Write(hello.Nonce)
	h.Write(hello.ClientPub)
	h.Write(serverPub)
	var rd [tdx.ReportDataSize]byte
	copy(rd[:], h.Sum(nil))
	return rd
}

// ClientHello opens the handshake: a fresh nonce and X25519 key.
type ClientHello struct {
	Nonce     []byte
	ClientPub []byte
}

// ServerHello answers with the monitor's key and the binding quote.
type ServerHello struct {
	ServerPub []byte
	Quote     *attest.Quote
}

// NewClientHelloRand generates the client's opening message and its
// ephemeral private key, drawing key material from r (nil = OS CSPRNG). A
// seeded deterministic reader makes the hello bytes — and therefore the
// effect of content-dependent wire faults on them — a pure function of the
// seed.
func NewClientHelloRand(r io.Reader) (*ClientHello, *ecdh.PrivateKey, error) {
	priv, err := x25519From(r)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: client key: %w", err)
	}
	nonce := make([]byte, 32)
	if _, err := io.ReadFull(orOS(r), nonce); err != nil {
		return nil, nil, err
	}
	return &ClientHello{Nonce: nonce, ClientPub: priv.PublicKey().Bytes()}, priv, nil
}

func orOS(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}

// x25519From derives an X25519 private key from 32 reader bytes. The
// explicit read (rather than ecdh.GenerateKey) keeps the reader's byte
// consumption fixed, so deterministic readers yield deterministic keys.
func x25519From(r io.Reader) (*ecdh.PrivateKey, error) {
	b := make([]byte, 32)
	if _, err := io.ReadFull(orOS(r), b); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(b)
}

// ReportIssuer obtains a quoted report binding reportData; only Erebor's
// monitor can implement it honestly (tdcall ownership).
type ReportIssuer interface {
	IssueQuote(reportData [tdx.ReportDataSize]byte) (*attest.Quote, error)
}

// ServerHandshakeRand runs the monitor side: given the client hello and an
// issuer, produce the server hello and the two direction keys. The
// ephemeral server key is drawn from r (nil = OS CSPRNG).
func ServerHandshakeRand(r io.Reader, hello *ClientHello, issuer ReportIssuer) (*ServerHello, Keys, error) {
	priv, err := x25519From(r)
	if err != nil {
		return nil, Keys{}, fmt.Errorf("secchan: server key: %w", err)
	}
	serverPub := priv.PublicKey().Bytes()
	quote, err := issuer.IssueQuote(ReportDataFor(hello, serverPub))
	if err != nil {
		return nil, Keys{}, err
	}
	clientPub, err := ecdh.X25519().NewPublicKey(hello.ClientPub)
	if err != nil {
		return nil, Keys{}, fmt.Errorf("secchan: client pub: %w", err)
	}
	shared, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, Keys{}, err
	}
	transcript := transcriptOf(hello, serverPub)
	c2s, s2c := DeriveKeys(shared, transcript)
	return &ServerHello{ServerPub: serverPub, Quote: quote},
		Keys{send: s2c, recv: c2s}, nil
}

// ClientFinish runs the client side: verify the quote (signature, MRTD,
// report-data binding) and derive keys.
func ClientFinish(hello *ClientHello, priv *ecdh.PrivateKey, sh *ServerHello,
	quotingPub *ecdsa.PublicKey, expectedMRTD *[tdx.MeasurementSize]byte) (Keys, error) {

	report, err := attest.Verify(quotingPub, sh.Quote, expectedMRTD)
	if err != nil {
		return Keys{}, err
	}
	want := ReportDataFor(hello, sh.ServerPub)
	if report.ReportData != want {
		return Keys{}, errors.New("secchan: attestation does not bind this handshake (replay or impersonation)")
	}
	serverPub, err := ecdh.X25519().NewPublicKey(sh.ServerPub)
	if err != nil {
		return Keys{}, fmt.Errorf("secchan: server pub: %w", err)
	}
	shared, err := priv.ECDH(serverPub)
	if err != nil {
		return Keys{}, err
	}
	transcript := transcriptOf(hello, sh.ServerPub)
	c2s, s2c := DeriveKeys(shared, transcript)
	return Keys{send: c2s, recv: s2c}, nil
}

// Keys holds the directional record keys derived by a handshake side.
type Keys struct{ send, recv []byte }

// Conn builds the record-layer connection for this side.
func (k Keys) Conn(tr Transport, padBlock int) (*Conn, error) {
	return NewConn(tr, k.send, k.recv, padBlock)
}

// --- wire encoding of handshake frames ---------------------------------------

// EncodeHello / DecodeHello and EncodeServerHello / DecodeServerHello use
// JSON: the frames are integrity-protected by the attestation binding, not
// by the encoding.

// EncodeHello serializes a ClientHello frame. Failures surface as typed
// errors through the session result — the shepherding path never panics.
func EncodeHello(h *ClientHello) ([]byte, error) {
	b, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("secchan: encoding hello: %w", err)
	}
	return b, nil
}

// DecodeHello parses a ClientHello frame.
func DecodeHello(b []byte) (*ClientHello, error) {
	var h ClientHello
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, fmt.Errorf("secchan: bad hello frame: %w", err)
	}
	return &h, nil
}

// EncodeServerHello serializes a ServerHello frame. Like EncodeHello it
// returns a typed error instead of panicking.
func EncodeServerHello(sh *ServerHello) ([]byte, error) {
	b, err := json.Marshal(sh)
	if err != nil {
		return nil, fmt.Errorf("secchan: encoding server hello: %w", err)
	}
	return b, nil
}

// DecodeServerHello parses a ServerHello frame.
func DecodeServerHello(b []byte) (*ServerHello, error) {
	var sh ServerHello
	if err := json.Unmarshal(b, &sh); err != nil {
		return nil, fmt.Errorf("secchan: bad server hello frame: %w", err)
	}
	return &sh, nil
}

func transcriptOf(hello *ClientHello, serverPub []byte) []byte {
	t := make([]byte, 0, len(hello.Nonce)+len(hello.ClientPub)+len(serverPub))
	t = append(t, hello.Nonce...)
	t = append(t, hello.ClientPub...)
	t = append(t, serverPub...)
	return t
}
