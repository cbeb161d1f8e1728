package fcgi

import (
	"testing"

	"iolite/internal/core"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// TestAutoWindowRule pins the autotuning rule: depth × (typical record +
// framing), clamped to [MinWindow, MaxWindow], with defaults for unset
// inputs.
func TestAutoWindowRule(t *testing.T) {
	if got, want := AutoWindow(16, 32<<10), 16*(32<<10+2*HeaderLen); got != want {
		t.Errorf("AutoWindow(16, 32K) = %d, want %d", got, want)
	}
	if got := AutoWindow(1, 1024); got != MinWindow {
		t.Errorf("shallow pool window = %d, want the %d floor", got, MinWindow)
	}
	if got := AutoWindow(4096, 64<<10); got != MaxWindow {
		t.Errorf("very deep pool window = %d, want the %d cap", got, MaxWindow)
	}
	if got, want := AutoWindow(0, 0), 8*(TypicalRecordBytes+2*HeaderLen); got != want {
		t.Errorf("default window = %d, want %d", got, want)
	}
}

// TestPoolTunesSocketTransportWindow wires pools over a socket transport
// and checks the window each configuration yields: autotuned from the
// pool's depth and typical response, or the explicit Tss when one is set —
// the hardwired 256 KB constant is gone.
func TestPoolTunesSocketTransportWindow(t *testing.T) {
	handler := func(p *sim.Proc, w *Worker, req *ServerRequest) { req.ReplyBytes(p, []byte("x"), 0) }

	b := newBed()
	tr := NewLoopbackTransport(b.m, b.srv, true, 0)
	NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: 16,
		Ref: true, Transport: tr, TypicalResponse: 32 << 10,
		Name: "tw", Handler: handler,
	})
	if got, want := tr.Window(), AutoWindow(16, 32<<10); got != want {
		t.Errorf("tuned window = %d, want %d (depth 16 × 32K records)", got, want)
	}

	b2 := newBed()
	tr2 := NewLoopbackTransport(b2.m, b2.srv, true, 0)
	tr2.Tss = 96 << 10
	NewWorkerPool(PoolConfig{
		Machine: b2.m, Server: b2.srv, Workers: 1, Depth: 16,
		Ref: true, Transport: tr2, TypicalResponse: 32 << 10,
		Name: "tw2", Handler: handler,
	})
	if got := tr2.Window(); got != 96<<10 {
		t.Errorf("explicit Tss overridden: window = %d, want %d", got, 96<<10)
	}
}

// TestWindowStarvedStreamStaysFullSegments is the PR's regression pin: a
// deliberately tiny send window under a deep mux used to trickle records
// into the transport in sub-MSS pieces, one undersized packet each. With
// the corked pump the trickle re-assembles: the stream stays at
// essentially ⌈bytes/MSS⌉ full data segments even when window-starved.
func TestWindowStarvedStreamStaysFullSegments(t *testing.T) {
	const (
		depth    = 8
		M        = 16
		docBytes = 32 << 10
	)
	b := newBed()
	tr := NewLoopbackTransport(b.m, b.srv, true, 0)
	tr.Tss = 4 << 10 // far below depth × record: admission is window-starved
	pool := NewWorkerPool(PoolConfig{
		Machine: b.m, Server: b.srv, Workers: 1, Depth: depth,
		Ref: true, Transport: tr, Name: "starve",
		Handler: func(p *sim.Proc, w *Worker, req *ServerRequest) {
			out := core.PackBytes(p, w.Proc.Pool, doc(docBytes))
			if err := req.WriteStdout(p, out); err != nil {
				out.Release()
				return
			}
			req.End(p, 0)
		},
	})
	runRound(t, b, pool, M, []byte("/doc"), docBytes)

	pktsOut, bytesOut := b.m.Host.Stats().PktsOut, b.m.Host.Stats().BytesOut
	// Both directions ride the loopback on this one host; responses
	// dominate. Allow the requests and per-request flush tails as slack
	// over the ideal ⌈bytes/MSS⌉ packing.
	ideal := (bytesOut + netsim.MSS - 1) / netsim.MSS
	if pktsOut > ideal+3*M {
		t.Fatalf("window-starved stream used %d segments for %d bytes (ideal %d): sub-MSS fragmentation",
			pktsOut, bytesOut, ideal)
	}
	if fill := b.m.Host.MeanSegFill(); fill < 0.75 {
		t.Fatalf("mean segment fill %.2f, want ≥0.75 despite the 4 KB window", fill)
	}
}
