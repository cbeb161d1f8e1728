package experiments

import (
	"runtime"
	"testing"
	"time"

	"iolite/internal/apps"
)

// TestRunnersLeaveNoGoroutines is the teardown gate: every runner closes
// its engine before it returns, so no proc of the simulated world (an
// event loop parked in Wait, a mux reader, a worker) survives the call,
// and a figure's sweep workers have exited when the figure returns.
func TestRunnersLeaveNoGoroutines(t *testing.T) {
	const warm, measure = 20 * time.Millisecond, 50 * time.Millisecond
	runs := []struct {
		name string
		run  func()
	}{
		{"RunWeb", func() {
			RunWeb(WebParams{Server: CfgFlashLite, Clients: 8, SingleFileSize: 16 << 10, Warmup: warm, Measure: measure})
		}},
		{"RunFCGI", func() {
			RunFCGI(FCGIParams{Placement: PlaceSockLocal, Workers: 2, Depth: 4, Ref: true, Warmup: warm, Measure: measure})
		}},
		{"RunProxy", func() {
			RunProxy(ProxyParams{Origin: CfgFlashLite, Mode: apps.ProxyZeroCopy, Warmup: warm, Measure: measure})
		}},
		{"RunChaos", func() {
			RunChaos(ChaosParams{LossProb: 0.01, KillEvery: 20 * time.Millisecond, Replay: true, Warmup: warm, Measure: measure})
		}},
		{"RunQoS", func() {
			RunQoS(QoSParams{Tenants: 10, Aggressor: true, QoS: true, Warmup: warm, Measure: measure})
		}},
		{"RunStaleChaos", func() { RunStaleChaos() }},
		{"FigChaos", func() { FigChaos(Options{Quick: true}) }},
	}
	for _, r := range runs {
		before := runtime.NumGoroutine()
		r.run()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before, %d after: the world was not torn down", r.name, before, after)
		}
	}
}
