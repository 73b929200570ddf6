package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// The retry engine's contract, driven directly: the policy constants, the
// order of a receive round and the back-off each blocking call charges.

// engineWorld boots a world with one sandbox running main.
func engineWorld(t *testing.T, main func(*sandbox.Container, *libos.OS)) (*World, *sandbox.Container) {
	t.Helper()
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "engine", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 64},
		Main:  main,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return w, c
}

// TestRecvWaitTimesOutOnSilentGuest: a guest that takes the request and
// never answers costs RecvWait all RecvRounds rounds. Every 4th round
// retransmits the request, and the back-off doubles from 1000 cycles until
// it reaches 2^32: 1000·(2^23−1) over the first 23 rounds and 41 rounds at
// 1000·2^23, 352,321,535,000 cycles in all. The rounds' own relay and
// guest work adds 362,231 cycles.
func TestRecvWaitTimesOutOnSilentGuest(t *testing.T) {
	w, c := engineWorld(t, func(c *sandbox.Container, os *libos.OS) {
		if _, n, err := os.ReceiveInput(4096, 64); err != nil || n == 0 {
			return
		}
		for {
			os.Env.YieldCPU()
		}
	})
	s := NewSession(w)
	if err := s.ConnectResilient(c); err != nil {
		t.Fatal(err)
	}
	if err := s.SendWithRetry([]byte("never answered")); err != nil {
		t.Fatal(err)
	}
	start := w.M.Clock.Now()
	_, err := s.RecvWait()
	if !errors.Is(err, secchan.ErrTimeout) || !strings.Contains(err.Error(), "after 64 rounds") {
		t.Fatalf("RecvWait = %v, want a timeout after 64 rounds", err)
	}
	if got := s.Client.ChannelStats().Retransmits; got != RecvRounds/retransmitEvery {
		t.Fatalf("%d client retransmits, want %d", got, RecvRounds/retransmitEvery)
	}
	const backoff, work = 352_321_535_000, 362_231
	if got := w.M.Clock.Now() - start; got != backoff+work {
		t.Fatalf("RecvWait took %d cycles, want %d of back-off + %d of work", got, backoff, work)
	}
}

// refusingAcceptor fails every AcceptSession and counts the calls.
type refusingAcceptor struct {
	accepts, aborts int
	abortErr        error
}

var errRefused = errors.New("acceptor refuses")

func (a *refusingAcceptor) AcceptSession(secchan.Transport) error {
	a.accepts++
	return errRefused
}

func (a *refusingAcceptor) AbortSession() error {
	a.aborts++
	return a.abortErr
}

// TestConnectResilientSpendsItsAttempts: against an acceptor that always
// refuses, ConnectResilient makes MaxAttempts attempts, aborts the
// half-open session between each pair, backs off 1000·(2^7−1) cycles
// and fails with a timeout naming the last refusal. An abort that fails
// ends the handshake at once.
func TestConnectResilientSpendsItsAttempts(t *testing.T) {
	w, _ := engineWorld(t, func(*sandbox.Container, *libos.OS) {})
	acc := &refusingAcceptor{}
	start := w.M.Clock.Now()
	err := NewSession(w).ConnectResilient(acc)
	if !errors.Is(err, secchan.ErrTimeout) ||
		!strings.Contains(err.Error(), "after 8 attempts (last: acceptor refuses)") {
		t.Fatalf("ConnectResilient = %v, want a timeout after 8 refused attempts", err)
	}
	if acc.accepts != MaxAttempts || acc.aborts != MaxAttempts-1 {
		t.Fatalf("%d accepts and %d aborts, want %d and %d", acc.accepts, acc.aborts, MaxAttempts, MaxAttempts-1)
	}
	if got := w.M.Clock.Now() - start; got != 127_000 {
		t.Fatalf("handshake retries took %d cycles, want 127000 of back-off", got)
	}

	errAbort := errors.New("abort refused")
	acc = &refusingAcceptor{abortErr: errAbort}
	err = NewSession(w).ConnectResilient(acc)
	if !errors.Is(err, errAbort) || errors.Is(err, secchan.ErrTimeout) || acc.accepts != 1 {
		t.Fatalf("failed abort: ConnectResilient = %v after %d accepts, want the abort error after 1", err, acc.accepts)
	}
}

// TestRecvStepReplyBeatsDeadGuest: a guest step that lets the guest reply
// and then reports it dead still yields the reply, because the round
// receives again before it acts on the death. The next round, with
// nothing left to receive, reports the death.
func TestRecvStepReplyBeatsDeadGuest(t *testing.T) {
	w, c := engineWorld(t, func(c *sandbox.Container, os *libos.OS) {
		buf, n, err := os.ReceiveInput(4096, 64)
		if err != nil || n == 0 {
			return
		}
		data := make([]byte, n)
		os.Env.ReadMem(buf, data)
		if err := os.SendOutputBytes(bytes.ToUpper(data)); err != nil {
			return
		}
		os.Env.Fatal(137, "dies after replying")
	})
	s := NewSession(w)
	if err := s.ConnectResilient(c); err != nil {
		t.Fatal(err)
	}
	if err := s.SendWithRetry([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	errDead := errors.New("guest dead")
	step := func() error {
		for c.Task.State != kernel.TaskZombie && w.K.StepOne() {
		}
		return errDead
	}
	msg, err := s.RecvStep(step)
	if err != nil || string(msg) != "LAST WORDS" {
		t.Fatalf("RecvStep = %q, %v; want the reply the guest sent before dying", msg, err)
	}
	if _, err := s.RecvStep(step); !errors.Is(err, errDead) {
		t.Fatalf("RecvStep after the reply = %v, want the dead guest", err)
	}
}
