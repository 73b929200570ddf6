package monitor

import (
	"errors"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// quoteIssuer binds the monitor + a core into secchan.ReportIssuer.
type quoteIssuer struct {
	mon  *Monitor
	core *cpu.Core
}

// IssueQuote obtains a TDREPORT via the monitor-exclusive tdcall path and
// signs it with the simulated CPU quoting key (C5: only the monitor can
// execute tdcall, so only it can produce quotes).
func (qi quoteIssuer) IssueQuote(reportData [tdx.ReportDataSize]byte) (*attest.Quote, error) {
	mon, c := qi.mon, qi.core
	var quote *attest.Quote
	err := mon.gate(c, metrics.EMCGHCI, func() error {
		mon.M.Clock.Charge(costs.EreborGHCIBody - costs.NativeTDReport)
		if _, trap := c.TDCall(tdx.LeafTDReport, nil); trap != nil {
			return trap
		}
		report, err := mon.TDX.GenerateReport(reportData[:])
		if err != nil {
			return err
		}
		mon.Stats.QuotesIssued++
		mon.Rec.Emit(trace.KindQuote, trace.TrackMonitor, "")
		q, err := mon.QK.Sign(report)
		if err != nil {
			return err
		}
		quote = q
		return nil
	})
	return quote, err
}

// IssueQuote is the monitor's public attestation entry (used by the
// handshake and by tests).
func (mon *Monitor) IssueQuote(c *cpu.Core, reportData [tdx.ReportDataSize]byte) (*attest.Quote, error) {
	mon.assertBooted()
	return quoteIssuer{mon, c}.IssueQuote(reportData)
}

// AcceptSession runs the server side of the attested handshake for a
// sandbox over tr (a transport whose far side is the untrusted proxy): it
// reads the client hello, issues the binding quote, sends the server
// hello, and installs the resulting record connection on the sandbox.
func (mon *Monitor) AcceptSession(c *cpu.Core, id SandboxID, tr secchan.Transport) error {
	mon.assertBooted()
	sb, ok := mon.sandboxes[id]
	if !ok || sb.destroyed {
		return denied("accept-session", "no live sandbox %d", id)
	}
	if sb.conn != nil {
		return denied("accept-session", "sandbox %d already has a session", id)
	}
	frame, err := tr.Recv()
	if err != nil {
		return fmt.Errorf("monitor: no client hello available: %w", err)
	}
	hello, err := secchan.DecodeHello(frame)
	if err != nil {
		return err
	}
	sh, keys, err := secchan.ServerHandshakeRand(mon.Entropy, hello, quoteIssuer{mon, c})
	if err != nil {
		return err
	}
	shFrame, err := secchan.EncodeServerHello(sh)
	if err != nil {
		return err
	}
	if err := tr.Send(shFrame); err != nil {
		return err
	}
	conn, err := keys.Conn(tr, 0)
	if err != nil {
		return err
	}
	rc := secchan.NewReliable(conn)
	// The monitor is the responder: a duplicate of an already-consumed
	// request means the client is retrying because frames (possibly our
	// response) were lost — re-send retained history.
	rc.RetransmitOnDup = true
	rc.Rec, rc.Track = mon.Rec, trace.TrackMonitor
	rc.Attr = mon.M.Attr
	sb.conn = rc
	return nil
}

// AbortSession tears down a half-established session so the client can
// retry the attested handshake (frames lost or corrupted in flight). Only
// permitted before any client data has been installed: after install the
// channel is load-bearing for confidentiality cleanup and the sandbox must
// be ended instead.
func (mon *Monitor) AbortSession(id SandboxID) error {
	mon.assertBooted()
	sb, ok := mon.sandboxes[id]
	if !ok || sb.destroyed {
		return denied("abort-session", "no live sandbox %d", id)
	}
	if sb.dataInstalled {
		return denied("abort-session", "sandbox %d already holds client data", id)
	}
	sb.conn = nil
	return nil
}

// pumpChannel drains available client records into the sandbox's pending
// input queue. The resilience layer underneath absorbs hostile noise —
// duplicates, replays and corrupt frames are counted and dropped, never
// delivered — so the only terminal condition here is an empty transport.
func (mon *Monitor) pumpChannel(sb *sbState) {
	if sb.conn == nil {
		return
	}
	for {
		msg, err := sb.conn.Recv()
		if err != nil {
			if !errors.Is(err, secchan.ErrEmpty) {
				// Transport-level failure (e.g. backpressure); the client
				// retries, nothing to do monitor-side.
				mon.Stats.ChannelErrors++
			}
			return
		}
		sb.pendingInput = append(sb.pendingInput, msg)
	}
}

// ChannelStats aggregates the resilience-layer counters across every
// sandbox channel — live and ended — for the platform stats surface. A
// channel retires into the monitor-wide aggregate at session end; a killed
// sandbox's channel counts from its record while the sandbox stays
// registered, and retires when EMCDestroyAS drops that record.
func (mon *Monitor) ChannelStats() secchan.ReliableStats {
	total := mon.retiredChan
	for _, sb := range mon.sandboxes {
		if sb.conn != nil {
			total.Add(sb.conn.Stats)
		}
	}
	return total
}

// QueueClientInput lets the harness inject an already-decrypted message
// (for configurations without a full channel, mirroring the prototype's
// DebugFS emulation described in §7 of the paper).
func (mon *Monitor) QueueClientInput(id SandboxID, data []byte) error {
	sb, ok := mon.sandboxes[id]
	if !ok || sb.destroyed {
		return denied("queue-input", "no live sandbox %d", id)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sb.pendingInput = append(sb.pendingInput, cp)
	return nil
}
