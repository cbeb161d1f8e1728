package experiments

import (
	"fmt"
	"testing"
	"time"
)

// QoS benchmarks: the four {uniform, aggressor} × {off, on} legs as one
// bench each, reporting victim p99, aggressor goodput, sheds/req, and the
// admission activity meters so the CI bench job (BENCH_qos.json)
// tracks isolation and enforcement overhead release over release. The
// enforcement-overhead percentage is computed inside BenchmarkQoSUniformOn
// by running its own QoS-off baseline.
//
//	go test ./internal/experiments -bench=QoS -benchtime=1x

func benchQoS(b *testing.B, qp QoSParams) QoSResult {
	b.Helper()
	qp.Tenants = 500
	qp.Warmup = 150 * time.Millisecond
	qp.Measure = 600 * time.Millisecond
	var r QoSResult
	for i := 0; i < b.N; i++ {
		r = RunQoS(qp)
		if i == 0 {
			fmt.Printf("%s: victim p99 %.0fµs, %.2f kreq/s, agg %.2f kreq/s, sheds/req %.2f\n",
				r.Label, r.VictimP99Us, r.KReqPerSec, r.AggKReqPerSec, r.ShedsPerReq)
			b.ReportMetric(r.VictimP99Us, "victim_p99_us")
			b.ReportMetric(r.KReqPerSec, "kreq/s")
			b.ReportMetric(r.AggKReqPerSec, "aggressor_kreq/s")
			b.ReportMetric(r.ShedsPerReq, "sheds_per_req")
			b.ReportMetric(float64(r.Sheds+r.Throttles), "sheds")
			b.ReportMetric(r.CPUUtil, "cpu_util")
		}
	}
	return r
}

// BenchmarkQoSUniformOff — the enforcement-free uniform baseline.
func BenchmarkQoSUniformOff(b *testing.B) { benchQoS(b, QoSParams{}) }

// BenchmarkQoSUniformOn — enforcement on with nobody misbehaving: the
// overhead leg; enforce_overhead_pct is kreq/s lost vs a QoS-off run.
func BenchmarkQoSUniformOn(b *testing.B) {
	base := RunQoS(QoSParams{Tenants: 500, Warmup: 150 * time.Millisecond, Measure: 600 * time.Millisecond})
	r := benchQoS(b, QoSParams{QoS: true})
	if base.KReqPerSec > 0 {
		b.ReportMetric((base.KReqPerSec-r.KReqPerSec)/base.KReqPerSec*100, "enforce_overhead_pct")
	}
}

// BenchmarkQoSAggressorOff — the damage leg: what one heavy hitter does
// to victim p99 without enforcement.
func BenchmarkQoSAggressorOff(b *testing.B) { benchQoS(b, QoSParams{Aggressor: true}) }

// BenchmarkQoSAggressorOn — the isolation leg: enforcement restores the
// victim tail and the aggressor's excess becomes sheds.
func BenchmarkQoSAggressorOn(b *testing.B) { benchQoS(b, QoSParams{Aggressor: true, QoS: true}) }
