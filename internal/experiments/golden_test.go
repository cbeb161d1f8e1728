package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"iolite/internal/apps"
	"iolite/internal/wload"
)

// goldenRuns are short runs of every runner, one per topology and mode the
// runners branch on. Their results are pinned field by field in
// goldenResults: a refactor of the runners must leave every simulated
// number bit-identical.
var goldenRuns = []struct {
	name string
	run  func() interface{}
}{
	{"web/subtrace150", goldenTrace(CfgFlashLite)},
	{"web/subtrace150/flash", goldenTrace(CfgFlash)},
	{"web/subtrace150/apache", goldenTrace(CfgApache)},
	{"web/subtrace150/splice", goldenTrace(CfgFlashLiteSplice)},
	{"web/cgi", func() interface{} {
		return RunWeb(WebParams{
			Server: CfgFlashLite, Clients: 40, CGISize: 20 << 10,
			Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond, Seed: 1,
		})
	}},
	{"web/single-file", func() interface{} {
		return RunWeb(WebParams{
			Server: CfgFlashLite, Clients: 8, SingleFileSize: 16 << 10,
			Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond, Seed: 1,
		})
	}},
	{"fcgi/pipe/copy", goldenFCGI(PlacePipe, false, false, false)},
	{"fcgi/pipe/ref", goldenFCGI(PlacePipe, true, false, false)},
	{"fcgi/sock-local/copy", goldenFCGI(PlaceSockLocal, false, false, false)},
	{"fcgi/sock-local/ref", goldenFCGI(PlaceSockLocal, true, false, false)},
	{"fcgi/sock-remote/copy", goldenFCGI(PlaceSockRemote, false, false, false)},
	{"fcgi/sock-remote/ref", goldenFCGI(PlaceSockRemote, true, false, false)},
	{"fcgi/sock-local/ref/ring", goldenFCGI(PlaceSockLocal, true, true, false)},
	{"fcgi/sock-local/ref/offload", goldenFCGI(PlaceSockLocal, true, false, true)},
	{"proxy/zerocopy", func() interface{} {
		return RunProxy(ProxyParams{
			Origin: CfgFlashLite, Mode: apps.ProxyZeroCopy,
			Warmup: 200 * time.Millisecond, Measure: 400 * time.Millisecond, Seed: 7,
		})
	}},
	{"proxy/direct", func() interface{} {
		return RunProxy(ProxyParams{
			Origin: CfgFlashLite, Direct: true,
			Warmup: 200 * time.Millisecond, Measure: 400 * time.Millisecond, Seed: 7,
		})
	}},
	{"chaos/loss", func() interface{} {
		return RunChaos(ChaosParams{
			LossProb: 0.01, Warmup: 50 * time.Millisecond, Measure: 250 * time.Millisecond,
		})
	}},
	{"chaos/kills+replay", func() interface{} {
		return RunChaos(ChaosParams{
			LossProb: 0.01, KillEvery: 20 * time.Millisecond, Replay: true,
			Warmup: 50 * time.Millisecond, Measure: 250 * time.Millisecond,
		})
	}},
	{"qos/aggressor/on", func() interface{} {
		return RunQoS(QoSParams{
			Tenants: 100, Aggressor: true, QoS: true,
			Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond,
		})
	}},
}

// goldenTrace is the short subtrace run of server configuration sc.
func goldenTrace(sc ServerConfig) func() interface{} {
	return func() interface{} {
		return RunWeb(WebParams{
			Server: sc, Clients: 16, Trace: traceFor(wload.Subtrace150),
			Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond, Seed: 3,
		})
	}
}

func goldenFCGI(placement FCGIPlacement, ref, ring, offload bool) func() interface{} {
	return func() interface{} {
		return RunFCGI(FCGIParams{
			Placement: placement, Workers: 2, Depth: 4, Ref: ref, Ring: ring, Offload: offload,
			Warmup: 50 * time.Millisecond, Measure: 200 * time.Millisecond,
		})
	}
}

// numericFields flattens a result struct's numeric fields to float64s
// (every integer meter here is far below 2^53, so the conversion is exact).
func numericFields(v interface{}) map[string]float64 {
	rv := reflect.ValueOf(v)
	out := map[string]float64{}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			out[rv.Type().Field(i).Name] = float64(f.Int())
		case reflect.Float64:
			out[rv.Type().Field(i).Name] = f.Float()
		}
	}
	return out
}

// goldenLiteral renders one run's fields as a goldenResults entry, exact
// to the last bit, for pasting when a change is meant to move results.
func goldenLiteral(name string, fields map[string]float64) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%q: {", name)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %s", k, strconv.FormatFloat(fields[k], 'g', -1, 64))
	}
	b.WriteString("},")
	return b.String()
}

// TestGoldenResults pins every numeric result field of goldenRuns.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs")
	}
	for _, g := range goldenRuns {
		got := numericFields(g.run())
		want, ok := goldenResults[g.name]
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s drifted from its golden result:\n got  %s\n want %s",
				g.name, goldenLiteral(g.name, got), goldenLiteral(g.name, want))
		}
	}
}

var goldenResults = map[string]map[string]float64{
	"web/subtrace150":             {"CPUUtil": 0.42750705333333333, "DiskUtil": 1, "Errors": 0, "HitRate": 0.8495575221238938, "Mbps": 93.15472, "P50Us": 1769.471, "P99Us": 142606.335, "Requests": 226},
	"web/subtrace150/flash":       {"CPUUtil": 0.6774545266666666, "DiskUtil": 1, "Errors": 0, "HitRate": 0.8694158075601375, "Mbps": 107.02389333333335, "P50Us": 2031.615, "P99Us": 142606.335, "Requests": 291},
	"web/subtrace150/apache":      {"CPUUtil": 1, "DiskUtil": 1, "Errors": 0, "HitRate": 0.8724137931034482, "Mbps": 112.3916, "P50Us": 8126.463, "P99Us": 79691.775, "Requests": 292},
	"web/subtrace150/splice":      {"CPUUtil": 0.43550865333333333, "DiskUtil": 1, "Errors": 0, "HitRate": 0.8484848484848485, "Mbps": 94.17128, "P50Us": 1769.471, "P99Us": 142606.335, "Requests": 231},
	"web/cgi":                     {"CPUUtil": 0.9996150466666667, "DiskUtil": 0, "Errors": 0, "HitRate": 0, "Mbps": 222.4013866666667, "P50Us": 28311.551, "P99Us": 32505.855, "Requests": 407},
	"web/single-file":             {"CPUUtil": 0.99821035, "DiskUtil": 0, "Errors": 0, "HitRate": 1, "Mbps": 225.41984, "P50Us": 3801.087, "P99Us": 4456.447, "Requests": 511},
	"fcgi/pipe/copy":              {"AcksPerReq": 0, "CPUUtil": 0.999445225, "CopiedMB": 20.7092342376709, "Failures": 0, "KReqPerSec": 3.305, "P50Us": 2419.12, "P99Us": 2419.12, "PktsPerReq": 0, "Requests": 661, "SegFill": 0, "SegsPerReq": 0, "SyscallsPerReq": 12.004538577912253, "WorkerCPUUtil": 0.999445225},
	"fcgi/pipe/ref":               {"AcksPerReq": 0, "CPUUtil": 1, "CopiedMB": 0.13422012329101562, "Failures": 0, "KReqPerSec": 13.535, "P50Us": 591.12, "P99Us": 591.12, "PktsPerReq": 0, "Requests": 2707, "SegFill": 0, "SegsPerReq": 0, "SyscallsPerReq": 9.999261174732176, "WorkerCPUUtil": 1},
	"fcgi/sock-local/copy":        {"AcksPerReq": 13.512195121951219, "CPUUtil": 1, "CopiedMB": 5.140922546386719, "Failures": 0, "KReqPerSec": 0.82, "P50Us": 9748.992, "P99Us": 9748.992, "PktsPerReq": 13.50609756097561, "Requests": 164, "SegFill": 0.8334592906397847, "SegsPerReq": 13.50609756097561, "SyscallsPerReq": 31.024390243902438, "WorkerCPUUtil": 1},
	"fcgi/sock-local/ref":         {"AcksPerReq": 13.206572769953052, "CPUUtil": 1, "CopiedMB": 0.010522842407226562, "Failures": 0, "KReqPerSec": 1.065, "P50Us": 7602.175, "P99Us": 7602.175, "PktsPerReq": 13.206572769953052, "Requests": 213, "SegFill": 0.8492985113148834, "SegsPerReq": 13.206572769953052, "SyscallsPerReq": 25.04225352112676, "WorkerCPUUtil": 1},
	"fcgi/sock-remote/copy":       {"AcksPerReq": 13.247706422018348, "CPUUtil": 0.971432745, "CopiedMB": 10.226316452026367, "Failures": 0, "KReqPerSec": 1.635, "P50Us": 4980.735, "P99Us": 4980.735, "PktsPerReq": 13.256880733944953, "Requests": 327, "SegFill": 0.8504782670521875, "SegsPerReq": 13.256880733944953, "SyscallsPerReq": 31.201834862385322, "WorkerCPUUtil": 0.99979626},
	"fcgi/sock-remote/ref":        {"AcksPerReq": 13.204268292682928, "CPUUtil": 0.770439965, "CopiedMB": 5.114963531494141, "Failures": 0, "KReqPerSec": 1.64, "P50Us": 4980.735, "P99Us": 4980.735, "PktsPerReq": 13.210365853658537, "Requests": 328, "SegFill": 0.850409251712724, "SegsPerReq": 13.210365853658537, "SyscallsPerReq": 31.161585365853657, "WorkerCPUUtil": 1},
	"fcgi/sock-local/ref/ring":    {"AcksPerReq": 12.290598290598291, "CPUUtil": 0.983635685, "CopiedMB": 0.01160430908203125, "Failures": 0, "KReqPerSec": 1.17, "P50Us": 7602.175, "P99Us": 7602.175, "PktsPerReq": 12.290598290598291, "Requests": 234, "SegFill": 0.920952807361823, "SegsPerReq": 12.290598290598291, "SyscallsPerReq": 8.457264957264957, "WorkerCPUUtil": 0.983635685},
	"fcgi/sock-local/ref/offload": {"AcksPerReq": 2.388030888030888, "CPUUtil": 0.999873165, "CopiedMB": 0.025638580322265625, "Failures": 0, "KReqPerSec": 2.59, "P50Us": 3014.655, "P99Us": 3476.765, "PktsPerReq": 3.687258687258687, "Requests": 518, "SegFill": 0.06797192958012925, "SegsPerReq": 13.687258687258687, "SyscallsPerReq": 12.66988416988417, "WorkerCPUUtil": 0.999873165},
	"proxy/zerocopy":              {"Aborted": 0, "AcksPerReq": 51.489177489177486, "CksumHitRate": 0.8559403099292137, "CopiedMB": 0.0029811859130859375, "Errors": 0, "HitRate": 0.9333333333333333, "Mbps": 300.43884, "P50Us": 22020.095, "P99Us": 285212.671, "PktsPerReq": 43.39393939393939, "Requests": 231, "SegFill": 0.9971714460636937, "SegsPerReq": 43.39393939393939, "ServerCPUUtil": 0.99537036, "SyscallsPerReq": 12.025974025974026},
	"proxy/direct":                {"Aborted": 0, "AcksPerReq": 48.81545064377682, "CksumHitRate": 0.8410106565830182, "CopiedMB": 0.015077590942382812, "Errors": 0, "HitRate": 0, "Mbps": 333.23784, "P50Us": 16252.927, "P99Us": 285212.671, "PktsPerReq": 47.78540772532189, "Requests": 233, "SegFill": 0.998475236902392, "SegsPerReq": 47.78540772532189, "ServerCPUUtil": 0.9519485925, "SyscallsPerReq": 8.334763948497853},
	"chaos/loss":                  {"CopiedKBPerReq": 0.0499267578125, "CorruptedSegs": 0, "DroppedSegs": 53, "Failed": 0, "GoodputKReq": 0.704, "LeakPages": 0, "P50Us": 3276.799, "P99Us": 22020.095, "Replays": 0, "Requests": 176, "Reroutes": 0, "Respawns": 0, "RetransPct": 0.24171791163358375, "RetransSegs": 714},
	"chaos/kills+replay":          {"CopiedKBPerReq": 1.08984375, "CorruptedSegs": 0, "DroppedSegs": 50, "Failed": 0, "GoodputKReq": 0.74, "LeakPages": 0, "P50Us": 2490.367, "P99Us": 9961.471, "Replays": 21, "Requests": 185, "Reroutes": 0, "Respawns": 14, "RetransPct": 0.13795978531162445, "RetransSegs": 374},
	"qos/aggressor/on":            {"AggKReqPerSec": 0.0033333333333333335, "AggOfferedX": 4401.333333333334, "CPUUtil": 0.08205170666666667, "KReqPerSec": 0.25333333333333335, "Requests": 76, "Sheds": 0, "ShedsPerReq": 43.421052631578945, "Throttles": 3300, "VictimKReqPerSec": 0.25, "VictimP50Us": 753.663, "VictimP99Us": 753.663},
}
