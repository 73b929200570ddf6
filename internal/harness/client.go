package harness

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Client is a remote client of an Erebor service: it attests the monitor,
// derives channel keys, and exchanges padded encrypted records. Everything
// between the client and the monitor (proxy, host network) sees ciphertext
// only.
type Client struct {
	tr         secchan.Transport
	quotingPub *ecdsa.PublicKey
	expected   [tdx.MeasurementSize]byte

	hello *secchan.ClientHello
	priv  *ecdh.PrivateKey
	conn  *secchan.Reliable

	// Rec, when non-nil, is wired onto the record connection once the
	// handshake finishes (frame events on the client track).
	Rec *trace.Recorder

	// Met/Attr mirror Rec for the telemetry registry: frame tallies labeled
	// with the ambient tenant (both optional, wired by the harness).
	Met  *metrics.Registry
	Attr *metrics.Attr

	// Rand, when non-nil, replaces the OS CSPRNG for the client's ephemeral
	// handshake key and nonce (wired from World.Entropy on seeded worlds).
	Rand io.Reader
}

// ExpectedMRTD recomputes the boot measurement a client expects: firmware
// plus the (open-source) monitor image. An impostor cannot produce this
// measurement without actually booting the real monitor first.
func ExpectedMRTD(monitorImage []byte) [tdx.MeasurementSize]byte {
	scratch := tdx.NewModule(nil, nil)
	scratch.MeasureBoot("firmware", firmware)
	scratch.MeasureBoot("erebor-monitor", monitorImage)
	return scratch.MRTD()
}

// NewClient binds a client to a transport and the hardware vendor's
// quoting public key.
func NewClient(tr secchan.Transport, quotingPub *ecdsa.PublicKey, expectedMRTD [tdx.MeasurementSize]byte) *Client {
	return &Client{tr: tr, quotingPub: quotingPub, expected: expectedMRTD}
}

// Start sends the client hello.
func (cl *Client) Start() error {
	hello, priv, err := secchan.NewClientHelloRand(cl.Rand)
	if err != nil {
		return err
	}
	cl.hello, cl.priv = hello, priv
	frame, err := secchan.EncodeHello(hello)
	if err != nil {
		return err
	}
	return cl.tr.Send(frame)
}

// Finish consumes the server hello, verifies the quote (signature, MRTD,
// handshake binding) and derives the record keys.
func (cl *Client) Finish() error {
	frame, err := cl.tr.Recv()
	if err != nil {
		return fmt.Errorf("client: no server hello: %w", err)
	}
	sh, err := secchan.DecodeServerHello(frame)
	if err != nil {
		return err
	}
	keys, err := secchan.ClientFinish(cl.hello, cl.priv, sh, cl.quotingPub, &cl.expected)
	if err != nil {
		return err
	}
	conn, err := keys.Conn(cl.tr, 0)
	if err != nil {
		return err
	}
	// The client is the initiator: it retransmits on timeout (driven by the
	// session's RecvStep), not on duplicate receipt, so the two ends never
	// ping-pong retransmissions.
	cl.conn = secchan.NewReliable(conn)
	cl.conn.Rec, cl.conn.Track = cl.Rec, trace.TrackClient
	cl.conn.Met, cl.conn.Attr = cl.Met, cl.Attr
	return nil
}

// Send transmits one padded encrypted request. The ciphertext is retained
// for idempotent retransmission (same sequence number, identical bytes).
func (cl *Client) Send(data []byte) error {
	if cl.conn == nil {
		return errors.New("client: handshake not finished")
	}
	return cl.conn.Send(data)
}

// Recv receives one response (secchan.ErrEmpty when none pending).
// Duplicates, replays and corrupt frames injected by the untrusted relay
// are absorbed and counted, never delivered.
func (cl *Client) Recv() ([]byte, error) {
	if cl.conn == nil {
		return nil, errors.New("client: handshake not finished")
	}
	return cl.conn.Recv()
}

// Retransmit re-sends all retained request records (timeout recovery).
func (cl *Client) Retransmit() {
	if cl.conn != nil {
		cl.conn.Retransmit()
	}
}

// ChannelStats exposes the client-side resilience counters.
func (cl *Client) ChannelStats() secchan.ReliableStats {
	if cl.conn == nil {
		return secchan.ReliableStats{}
	}
	return cl.conn.Stats
}

// drainTransport discards everything pending on the client's transport
// (stale frames from a failed handshake attempt).
func (cl *Client) drainTransport() {
	for {
		if _, err := cl.tr.Recv(); err != nil {
			return
		}
	}
}

// Session wires a client to a world's monitor through an untrusted
// in-memory proxy and returns all the moving parts.
type Session struct {
	Client *Client
	Proxy  *secchan.Proxy
	// MonTr is the monitor-side transport (passed to AcceptSession).
	MonTr secchan.Transport
	// W is the world the session belongs to (virtual clock for backoff,
	// scheduler for bounded waits).
	W *World
	// Inj, when non-nil, is the fault injector interposed on the untrusted
	// client<->proxy hop (chaos testing; see NewInjectedSession).
	Inj *faultinject.Injector

	// retry is the retry engine's state between steps (resilient.go).
	retry retryState
}

// NewSession builds the client <-> proxy <-> monitor plumbing for a world.
func NewSession(w *World) *Session {
	return NewInjectedSession(w, nil)
}

// NewInjectedSession builds a session whose untrusted client<->proxy hop
// passes, both ways, through inj (nil: no faults). A caller-owned injector
// lets several sessions on one world draw from a single deterministic
// fault schedule, so a (plan, workload) pair replays bit-identically.
func NewInjectedSession(w *World, inj *faultinject.Injector) *Session {
	clientEnd, proxyOuter := secchan.NewMemPipe()
	proxyInner, monEnd := secchan.NewMemPipe()
	var clientTr secchan.Transport = clientEnd
	var outer secchan.Transport = proxyOuter
	if inj != nil {
		// The client<->proxy hop is the fully untrusted segment: both
		// directions pass through the fault schedule.
		clientTr = inj.Wrap(clientEnd)
		outer = inj.Wrap(proxyOuter)
	}
	// The registry makes per-lane relay throughput (forwarded/dropped/
	// denied frame counts) observable without tracing.
	pr := &secchan.Proxy{Outer: outer, Inner: proxyInner, Met: w.Met}
	cl := NewClient(clientTr, w.QK.Public(), w.expectedMRTD)
	cl.Rec = w.Rec
	cl.Met, cl.Attr = w.Met, w.Attr
	cl.Rand = w.Entropy
	if inj != nil && inj.Rec == nil {
		inj.Rec = w.Rec
	}
	return &Session{Client: cl, Proxy: pr, MonTr: monEnd, W: w, Inj: inj}
}

// Pump relays pending frames both ways n times.
func (s *Session) Pump(n int) {
	for i := 0; i < n; i++ {
		s.Proxy.PumpOnce()
	}
}

// maxPumpRounds bounds PumpAll: relaying is one frame per direction per
// round, so this comfortably clears any queue a bounded session can build
// while guaranteeing termination (no hangs, ever).
const maxPumpRounds = 256

// PumpAll relays until the proxy goes quiescent (bounded; duplicated and
// replayed frames mean one round is rarely enough under fault injection).
func (s *Session) PumpAll() {
	idle := 0
	for i := 0; i < maxPumpRounds && idle < 2; i++ {
		if s.Proxy.PumpOnce() {
			idle = 0
		} else {
			idle++
		}
	}
}
