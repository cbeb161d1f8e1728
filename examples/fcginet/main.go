// FCGI-Net: the pluggable fcgi transport layer measured end to end — the
// LAN-tax study. The identical worker pool (4 workers, mux depth 8, a
// 16 KB document, a 400 µs simulated backend wait per request) runs over
// each transport the pool supports, in both payload modes:
//
//   - pipe: PR 3's wiring — one pipe pair per worker on the server
//     machine. Ref mode passes sealed aggregates by reference: zero
//     payload copies, framing only.
//
//   - sock-local: the same machine, but records ride loopback TCP. Ref
//     payloads still cross by reference; the cost is the protocol path —
//     per-segment packet work, interrupts, early demux, checksums — all
//     on the one CPU.
//
//   - sock-remote: workers as processes on a separate machine across a
//     1 Gb/s LAN link. The worker tier gets its own CPU, but sealed
//     aggregates cannot cross machines by reference: ref-requested
//     payloads are charged as copies exactly once, at the machine
//     boundary, and the wire joins the path.
//
// Run it with:
//
//	go run ./examples/fcginet
package main

import (
	"fmt"
	"time"

	"iolite/internal/experiments"
)

func main() {
	fmt.Println("4 FastCGI workers, mux depth 8, 16 KB documents, 400 µs backend wait per request")
	fmt.Println("(same pool, same workload — only the worker transport changes)")
	fmt.Println()

	run := func(placement experiments.FCGIPlacement, ref, ring, offload bool) {
		r := experiments.RunFCGI(experiments.FCGIParams{
			Placement: placement,
			Workers:   4,
			Depth:     8,
			Ref:       ref,
			Ring:      ring,
			Offload:   offload,
			Warmup:    300 * time.Millisecond,
			Measure:   2 * time.Second,
		})
		fmt.Printf("%-24s %6.1f kreq/s  copied %8.2f MB  (cpu %3.0f%%, worker machine %3.0f%%, %4.1f pkts/req, %4.1f acks/req, fill %.2f, %4.1f sys/req)\n",
			r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil*100, r.WorkerCPUUtil*100, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq)
	}
	for _, placement := range experiments.Placements {
		for _, ref := range []bool{false, true} {
			run(placement, ref, false, false)
		}
	}
	// The submission-ring variant of the local socket: both ends of every
	// worker channel batch record writes into one corked Submit and refill
	// reads through coalesced ring ops — compare sys/req against the
	// sock-local ref row above.
	run(experiments.PlaceSockLocal, true, true, false)
	// The segment-offload variant: LSO super-segments, GRO receive
	// coalescing, and delayed acks pay the protocol path per 64 KB
	// gather instead of per MSS — compare pkts/req and acks/req against
	// the sock-local ref row above.
	run(experiments.PlaceSockLocal, true, false, true)

	fmt.Println()
	fmt.Println("pipes charge framing only in ref mode; loopback TCP adds the per-packet")
	fmt.Println("protocol path; the machine boundary adds exactly one copy per payload byte")
	fmt.Println("(and buys the worker tier its own CPU) — the LAN tax, itemized.")
	fmt.Println()
	fmt.Println("pkts/req and segment fill meter the packet economy: the transport corks")
	fmt.Println("adjacent records into MSS-sized segments, and send windows autotune to")
	fmt.Println("depth × typical record, so the protocol tax is paid on full packets only.")
	fmt.Println()
	fmt.Println("sys/req meters kernel crossings: the ring row batches a whole mux cycle's")
	fmt.Println("record I/O into one Submit + one Reap, taking the syscall installment of")
	fmt.Println("the LAN tax back out.")
	fmt.Println()
	fmt.Println("the offl row turns on segment offload: the send pump gathers up to 64 KB")
	fmt.Println("into one charged super-segment, receives coalesce, and acks are delayed")
	fmt.Println("(every 2nd event or 100 µs) or piggybacked — the per-segment installment")
	fmt.Println("of the LAN tax itself, paid once per gather instead of once per MSS.")
}
