package experiments

import (
	"fmt"
	"testing"
	"time"
)

// FCGI benchmarks: each run reports throughput, the charged copy work and
// the packet and syscall meters as benchmark metrics, so the CI bench jobs
// track the multiplexing subsystem's zero-copy win (BENCH_fcgi.json, the
// pipe-transport scaling runs) and the LAN tax per placement × payload
// mode (BENCH_fcgi_net.json) numerically.
//
//	go test ./internal/experiments -bench='FCGI[^N]' -benchtime=1x
//	go test ./internal/experiments -bench=FCGINet -benchtime=1x

func benchFCGI(b *testing.B, fp FCGIParams) {
	b.Helper()
	fp.Warmup = 200 * time.Millisecond
	fp.Measure = time.Second
	for i := 0; i < b.N; i++ {
		r := RunFCGI(fp)
		if i == 0 {
			fmt.Printf("%s: %.1f kreq/s, copied %.2f MB, cpu %.2f/%.2f, %.1f pkts/req, %.1f acks/req, fill %.2f, %.1f sys/req\n",
				r.Label, r.KReqPerSec, r.CopiedMB, r.CPUUtil, r.WorkerCPUUtil, r.PktsPerReq, r.AcksPerReq, r.SegFill, r.SyscallsPerReq)
			b.ReportMetric(r.KReqPerSec, "kreq/s")
			b.ReportMetric(r.CopiedMB, "copiedMB")
			b.ReportMetric(r.CPUUtil*100, "cpu_pct")
			b.ReportMetric(r.WorkerCPUUtil*100, "wkr_cpu_pct")
			b.ReportMetric(r.PktsPerReq, "pkts/req")
			b.ReportMetric(r.SegsPerReq, "segs_per_req")
			b.ReportMetric(r.AcksPerReq, "acks_per_req")
			b.ReportMetric(r.SegFill*100, "segfill_pct")
			b.ReportMetric(r.SyscallsPerReq, "syscalls_per_req")
			b.ReportMetric(r.P50Us, "latency_p50_us")
			b.ReportMetric(r.P99Us, "latency_p99_us")
		}
	}
}

// BenchmarkFCGICopyShallow — the old protocol's shape: one request per
// worker pipe pair, serialized payloads.
func BenchmarkFCGICopyShallow(b *testing.B) { benchFCGI(b, FCGIParams{Workers: 4, Depth: 1}) }

// BenchmarkFCGICopyDeep — multiplexed requests, still copying payloads.
func BenchmarkFCGICopyDeep(b *testing.B) { benchFCGI(b, FCGIParams{Workers: 4, Depth: 8}) }

// BenchmarkFCGIRefShallow — reference payloads, one request at a time.
func BenchmarkFCGIRefShallow(b *testing.B) { benchFCGI(b, FCGIParams{Workers: 4, Depth: 1, Ref: true}) }

// BenchmarkFCGIRefDeep — the subsystem at full stretch: 32 in-flight
// requests over 4 pipe pairs, zero payload copies.
func BenchmarkFCGIRefDeep(b *testing.B) { benchFCGI(b, FCGIParams{Workers: 4, Depth: 8, Ref: true}) }

// BenchmarkFCGINetPipeCopy / PipeRef — the in-machine baseline.
func BenchmarkFCGINetPipeCopy(b *testing.B) { benchFCGI(b, FCGIParams{Placement: PlacePipe}) }
func BenchmarkFCGINetPipeRef(b *testing.B) {
	benchFCGI(b, FCGIParams{Placement: PlacePipe, Ref: true})
}

// BenchmarkFCGINetLocalCopy / LocalRef — loopback TCP: the protocol tax
// without the boundary.
func BenchmarkFCGINetLocalCopy(b *testing.B) { benchFCGI(b, FCGIParams{Placement: PlaceSockLocal}) }
func BenchmarkFCGINetLocalRef(b *testing.B) {
	benchFCGI(b, FCGIParams{Placement: PlaceSockLocal, Ref: true})
}

// BenchmarkFCGINetLocalRefRing — the submission-ring variant of the local
// socket: batched record writes and coalesced reads take the kernel-
// crossing installment back out of the LAN tax (compare syscalls_per_req
// and kreq/s against LocalRef, and kreq/s against PipeRef).
func BenchmarkFCGINetLocalRefRing(b *testing.B) {
	benchFCGI(b, FCGIParams{Placement: PlaceSockLocal, Ref: true, Ring: true})
}

// BenchmarkFCGINetRemoteCopy / RemoteRef — workers on their own machine:
// scale-out against the boundary copy and the wire.
func BenchmarkFCGINetRemoteCopy(b *testing.B) { benchFCGI(b, FCGIParams{Placement: PlaceSockRemote}) }
func BenchmarkFCGINetRemoteRef(b *testing.B) {
	benchFCGI(b, FCGIParams{Placement: PlaceSockRemote, Ref: true})
}

// BenchmarkFCGINetLocalRefOffload — segment offload on the local socket:
// super-segment send charging, coalesced receives, and delayed acks take
// the per-segment installment back out of the LAN tax (compare pkts/req,
// acks_per_req, and kreq/s against LocalRef).
func BenchmarkFCGINetLocalRefOffload(b *testing.B) {
	benchFCGI(b, FCGIParams{Placement: PlaceSockLocal, Ref: true, Offload: true})
}
