package harness

import (
	"errors"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// This file is the retry engine of the resilient data-shepherding path:
// handshake attempts with exponential backoff, bounded receive waits with
// timeout-driven retransmission, and deterministic interleaving of the
// guest scheduler with the untrusted relay. ConnectStep and RecvStep each
// make one bounded step and keep the engine's state on the Session, so
// ConnectResilient and RecvWait loop over them and the serving path makes
// one step per tick. All waiting is expressed in virtual cycles on the
// machine clock — never wall time — so every run, including
// fault-injected chaos runs, is reproducible from a seed.

// The retry policy, tuned to ride out sustained double-digit fault rates
// on the untrusted hop while still ending promptly when the far side is
// gone.
const (
	// MaxAttempts bounds a session's handshake attempts, and the sends a
	// full relay queue may refuse.
	MaxAttempts = 8
	// RecvRounds bounds the empty rounds of a receive wait.
	RecvRounds = 64
	// retransmitEvery re-sends the client's retained records on every
	// retransmitEvery-th empty receive round.
	retransmitEvery = 4
	// backoffBase is a blocking call's first back-off in cycles. It
	// doubles while below maxBackoff, which keeps long waits from
	// overflowing the clock arithmetic: the peak is 1000·2^23 cycles.
	backoffBase = 1_000
	maxBackoff  = uint64(1) << 32
)

// retryState is what the engine keeps between steps of one blocking call:
// the attempts made or empty rounds waited, the next back-off (0 when none
// was taken yet) and the last failed handshake attempt's error.
type retryState struct {
	n       int
	backoff uint64
	lastErr error
}

// wait charges the next back-off to the clock and doubles the one after.
func (r *retryState) wait(clock *cpu.Clock) {
	if r.backoff == 0 {
		r.backoff = backoffBase
	}
	clock.Charge(r.backoff)
	if r.backoff < maxBackoff {
		r.backoff *= 2
	}
}

// Acceptor is the monitor-side half a resilient connect drives: accept a
// session over a transport, and abort a half-established one so the next
// attempt starts clean. *sandbox.Container implements it.
type Acceptor interface {
	AcceptSession(tr secchan.Transport) error
	AbortSession() error
}

// ConnectStep makes one handshake attempt. Each attempt is a fresh
// ClientHello (fresh X25519 keys), so a stale or replayed server hello
// from an earlier attempt can never bind: the quote check in Client.Finish
// rejects it. A retry first backs off, aborts the monitor-side half-state
// and drains every hop. ConnectStep reports done once the handshake has
// finished; a failed attempt is kept as the last error and reports
// neither done nor an error, so the caller steps again. The step after
// the MaxAttempts-th failure returns an error wrapping secchan.ErrTimeout.
func (s *Session) ConnectStep(acc Acceptor) (done bool, err error) {
	r := &s.retry
	if r.n >= MaxAttempts {
		return false, fmt.Errorf("handshake failed after %d attempts (last: %v): %w",
			r.n, r.lastErr, secchan.ErrTimeout)
	}
	if r.n > 0 {
		r.wait(&s.W.M.Clock)
		if err := acc.AbortSession(); err != nil {
			return false, fmt.Errorf("abort between attempts: %w", err)
		}
		s.drainAll()
	}
	r.n++
	if r.lastErr = s.handshake(acc); r.lastErr != nil {
		return false, nil
	}
	// The receive rounds that follow start from a fresh engine.
	*r = retryState{}
	return true, nil
}

// handshake runs one attempt: client hello out, monitor accept, server
// hello back and verified.
func (s *Session) handshake(acc Acceptor) error {
	if err := s.Client.Start(); err != nil {
		return err
	}
	s.PumpAll()
	if err := acc.AcceptSession(s.MonTr); err != nil {
		return err
	}
	s.PumpAll()
	return s.Client.Finish()
}

// ConnectResilient runs the attested handshake end to end, one ConnectStep
// at a time. On exhaustion the error wraps secchan.ErrTimeout.
func (s *Session) ConnectResilient(acc Acceptor) error {
	s.retry = retryState{}
	for {
		done, err := s.ConnectStep(acc)
		if err != nil {
			return fmt.Errorf("harness: %w", err)
		}
		if done {
			return nil
		}
	}
}

// drainAll discards every in-flight frame on the session's hops: relay
// whatever the proxy holds, then empty both endpoints. Stale handshake
// frames must not be mistaken for the next attempt's hello.
func (s *Session) drainAll() {
	s.PumpAll()
	s.Client.drainTransport()
	for {
		if _, err := s.MonTr.Recv(); err != nil {
			break
		}
	}
}

// RecvStep makes one receive round: relay and receive, run step (one
// guest scheduling slice, so client retransmissions interleave with the
// sandbox's own receive attempts as concurrent progress would on real
// hardware), then relay and receive again. step reports a dead guest with
// a non-nil error, which the round returns only after that second receive:
// a reply the guest sent in its last slice still wins. An empty round is
// counted, re-sends the client's retained records on every
// retransmitEvery-th round and backs off. RecvStep returns the reply,
// secchan.ErrEmpty while rounds remain, or a failure; the RecvRounds-th
// empty round returns an error wrapping secchan.ErrTimeout.
func (s *Session) RecvStep(step func() error) ([]byte, error) {
	if msg, err := s.recv(); !errors.Is(err, secchan.ErrEmpty) {
		return msg, err
	}
	dead := step()
	if msg, err := s.recv(); !errors.Is(err, secchan.ErrEmpty) {
		return msg, err
	}
	if dead != nil {
		return nil, dead
	}
	r := &s.retry
	r.n++
	if r.n%retransmitEvery == 0 {
		// Timeout-driven recovery: re-send retained request records.
		// Sealing is deterministic per sequence number, so the monitor
		// side dedups bit-identical retransmits and — seeing evidence of
		// loss — re-sends its own retained responses.
		s.Client.Retransmit()
	}
	r.wait(&s.W.M.Clock)
	if r.n >= RecvRounds {
		return nil, fmt.Errorf("no reply after %d rounds: %w", RecvRounds, secchan.ErrTimeout)
	}
	return nil, secchan.ErrEmpty
}

// recv relays pending frames and takes the next reply: secchan.ErrEmpty
// when none has arrived.
func (s *Session) recv() ([]byte, error) {
	s.PumpAll()
	msg, err := s.Client.Recv()
	if err != nil && !errors.Is(err, secchan.ErrEmpty) {
		return nil, fmt.Errorf("reply receive: %w", err)
	}
	return msg, err
}

// RecvWait receives one reply, one RecvStep at a time, giving the guest
// scheduler one slice (StepOne) per round. It never hangs: the error after
// RecvRounds empty rounds wraps secchan.ErrTimeout.
func (s *Session) RecvWait() ([]byte, error) {
	s.retry = retryState{}
	for {
		msg, err := s.RecvStep(s.stepGuest)
		if err == nil {
			return msg, nil
		}
		if !errors.Is(err, secchan.ErrEmpty) {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
}

// stepGuest is RecvWait's guest step: one slice of whichever task the
// scheduler runs next. The guest as a whole never dies.
func (s *Session) stepGuest() error {
	s.W.K.StepOne()
	return nil
}

// SendWithRetry transmits one request record, retrying transient
// transport-full conditions with backoff (the proxy drains between
// attempts). Other errors surface immediately.
func (s *Session) SendWithRetry(data []byte) error {
	var r retryState
	for {
		err := s.Client.Send(data)
		if err == nil || !errors.Is(err, secchan.ErrQueueFull) {
			return err
		}
		r.n++
		if r.n == MaxAttempts {
			return fmt.Errorf("harness: send failed after %d attempts: %w", MaxAttempts, err)
		}
		r.wait(&s.W.M.Clock)
		s.PumpAll()
	}
}
