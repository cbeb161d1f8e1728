package experiments

import (
	"testing"
	"time"

	"iolite/internal/apps"
)

func quickProxy(mode apps.ProxyMode, direct bool) ProxyResult {
	return RunProxy(ProxyParams{
		Origin:  CfgFlashLite,
		Mode:    mode,
		Direct:  direct,
		Warmup:  500 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
		Seed:    7,
	})
}

// TestProxyChargedCostOrdering is the PR's proxy acceptance check: the
// zero-copy relay beats the copying proxy on charged cost, and the splice
// hit path beats both.
func TestProxyChargedCostOrdering(t *testing.T) {
	t.Parallel()
	cp := quickProxy(apps.ProxyCopy, false)
	zc := quickProxy(apps.ProxyZeroCopy, false)
	sp := quickProxy(apps.ProxySplice, false)
	for _, r := range []ProxyResult{cp, zc, sp} {
		if r.Errors != 0 || r.Aborted != 0 {
			t.Fatalf("%s: errors=%d aborted=%d", r.Label, r.Errors, r.Aborted)
		}
		if r.HitRate < 0.9 {
			t.Fatalf("%s: proxy hit rate %.2f, want ≥ 0.9", r.Label, r.HitRate)
		}
	}

	// Copies avoided: the zero-copy relay charges (at most) the request
	// trickle; the copying proxy charges every response byte at least twice.
	if zc.CopiedMB*10 >= cp.CopiedMB {
		t.Errorf("copy work: zero-copy %.2f MB vs copying %.2f MB, want ≥ 10x gap",
			zc.CopiedMB, cp.CopiedMB)
	}
	// Neither reference mode's hit path copies a byte: the residual is the
	// request trickle (a couple of bytes per request, vs ~66 KB/request on
	// the copying proxy). The residuals' relative order between zc and
	// splice is noise — it tracks request counts, not the data path.
	perReqBytes := func(r ProxyResult) float64 {
		return r.CopiedMB * (1 << 20) / float64(r.Requests)
	}
	if perReqBytes(zc) > 4 || perReqBytes(sp) > 4 {
		t.Errorf("ref-mode residual copies: zc %.2f B/req, splice %.2f B/req, want request-trickle scale",
			perReqBytes(zc), perReqBytes(sp))
	}

	// Charged cost per delivered byte: CPU busy fraction normalized by
	// throughput. The simulation is deterministic, so strict ordering holds.
	costPerByte := func(r ProxyResult) float64 { return r.ServerCPUUtil / r.Mbps }
	if !(costPerByte(cp) > costPerByte(zc)) {
		t.Errorf("charged cost: copying %.5f ≤ zero-copy %.5f", costPerByte(cp), costPerByte(zc))
	}
	if !(costPerByte(zc) > costPerByte(sp)) {
		t.Errorf("charged cost: zero-copy %.5f ≤ splice %.5f", costPerByte(zc), costPerByte(sp))
	}

	// Throughput: the copying proxy is CPU-bound below the others.
	if cp.Mbps >= zc.Mbps || cp.Mbps >= sp.Mbps {
		t.Errorf("throughput: copy %.0f, zc %.0f, splice %.0f Mb/s — copy should lose",
			cp.Mbps, zc.Mbps, sp.Mbps)
	}

	// The reference modes ride the proxy's checksum cache on every re-serve.
	if zc.CksumHitRate < 0.8 || sp.CksumHitRate < 0.8 {
		t.Errorf("cksum-cache hit rates: zc %.2f, splice %.2f, want ≥ 0.8",
			zc.CksumHitRate, sp.CksumHitRate)
	}
	if cp.CksumHitRate != 0 {
		t.Errorf("copying proxy used a checksum cache (hit rate %.2f)", cp.CksumHitRate)
	}
}

// TestProxyDirectComparison sanity-checks the direct baseline: the origin
// alone must also serve correctly, and the splice-origin kind must be no
// slower than plain Flash-Lite.
func TestProxyDirectComparison(t *testing.T) {
	t.Parallel()
	direct := quickProxy(apps.ProxyCopy, true) // mode ignored when Direct
	if direct.Errors != 0 {
		t.Fatalf("direct errors=%d", direct.Errors)
	}
	if direct.Mbps <= 0 {
		t.Fatal("direct run served nothing")
	}
	spl := RunProxy(ProxyParams{
		Origin:  CfgFlashLiteSplice,
		Direct:  true,
		Warmup:  500 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
		Seed:    7,
	})
	if spl.Errors != 0 {
		t.Fatalf("splice-origin errors=%d", spl.Errors)
	}
	if spl.Mbps < direct.Mbps*0.98 {
		t.Errorf("FL-splice direct %.0f Mb/s below Flash-Lite %.0f", spl.Mbps, direct.Mbps)
	}
}

// TestProxyOffloadPacketEconomy pins the proxy half of the offload
// acceptance bar: the zero-copy relay with segment offload moves at most
// 55% of the baseline's packets per request (data + acks) and does not
// give back throughput.
func TestProxyOffloadPacketEconomy(t *testing.T) {
	t.Parallel()
	run := func(offload bool) ProxyResult {
		r := RunProxy(ProxyParams{
			Origin:  CfgFlashLite,
			Mode:    apps.ProxyZeroCopy,
			Offload: offload,
			Warmup:  500 * time.Millisecond,
			Measure: 1500 * time.Millisecond,
			Seed:    7,
		})
		if r.Errors != 0 || r.Aborted != 0 {
			t.Fatalf("%s: errors=%d aborted=%d", r.Label, r.Errors, r.Aborted)
		}
		return r
	}
	off := run(false)
	on := run(true)

	t.Logf("proxy-zc: %.0f → %.0f Mb/s, %.1f+%.1f → %.1f+%.1f pkts+acks/req",
		off.Mbps, on.Mbps, off.PktsPerReq, off.AcksPerReq, on.PktsPerReq, on.AcksPerReq)
	offWire := off.PktsPerReq + off.AcksPerReq
	onWire := on.PktsPerReq + on.AcksPerReq
	if onWire > 0.55*offWire {
		t.Errorf("offload moves %.1f pkts+acks/req vs %.1f baseline; want ≤ 55%%",
			onWire, offWire)
	}
	if off.AcksPerReq == 0 || on.AcksPerReq == 0 {
		t.Errorf("ack meters silent: off %.1f, on %.1f acks/req", off.AcksPerReq, on.AcksPerReq)
	}
	if on.Mbps < off.Mbps {
		t.Errorf("offload throughput %.0f Mb/s below baseline %.0f", on.Mbps, off.Mbps)
	}
}
