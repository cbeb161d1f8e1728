package netsim

import (
	"testing"
	"time"

	"iolite/internal/sim"
)

// TestFIFOWindowStarvesLateWaiter pins FIFO send-window admission under
// contention: two senders share one endpoint's transmit window (tiny Tss,
// fat RTT, so the window is the bottleneck and senders park constantly).
// Wake-all in arrival order lets the front waiter consume the freed window
// and re-queue before the one behind it ever runs, so the first-parked
// sender starves the other almost completely.
func TestFIFOWindowStarvesLateWaiter(t *testing.T) {
	r := newRig(false, nil, 5*time.Millisecond)
	end := sim.Time(400 * time.Millisecond)
	var first, second int

	r.eng.Go("client", func(p *sim.Proc) {
		conn := Dial(p, r.client, r.link, r.lst, ConnOpts{Tss: 8 << 10})
		for {
			d, ok := conn.ClientEnd().Recv(p)
			if !ok {
				return
			}
			d.Release()
		}
	})
	r.eng.Go("server", func(p *sim.Proc) {
		conn := r.lst.Accept(p)
		ep := conn.ServerEnd()
		done := 0
		const chunk = 2 << 10
		sender := func(count *int) func(*sim.Proc) {
			return func(p *sim.Proc) {
				for p.Now() < end {
					ep.Send(p, Payload{Data: make([]byte, chunk)}, nil)
					*count += chunk
				}
				if done++; done == 2 {
					ep.Drain(p)
					ep.Close(p)
				}
			}
		}
		r.eng.Go("first", sender(&first))
		r.eng.Go("second", sender(&second))
	})
	r.eng.Run()

	if second == 0 {
		t.Fatalf("late waiter admitted nothing (first %d bytes)", first)
	}
	if share := float64(first) / float64(second); share < 10 {
		t.Fatalf("FIFO share first:second = %.2f, want ≥10 — near-starvation of the late waiter", share)
	}
}
