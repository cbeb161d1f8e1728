package httpd

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/cache"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// newBedCfg is newBed with a hook to customize the server config (deadline
// and replay knobs).
func newBedCfg(kind Kind, mut func(*Config)) *bed {
	eng := sim.New()
	costs := sim.DefaultCosts()
	var kcfg kernel.Config
	if kind.Lite() {
		kcfg = kernel.Config{Policy: cache.NewGDS(), ChecksumCache: true}
	}
	m := kernel.NewMachine(eng, costs, kcfg)
	b := &bed{eng: eng, m: m}
	b.lst = netsim.NewListener(m.Host)
	b.client = netsim.NewHost(eng, costs, "client", false, nil, nil)
	b.link = netsim.NewLink(eng, b.client, m.Host, 100_000_000, 100*time.Microsecond)
	cfg := Config{Kind: kind, Machine: m, Listener: b.lst, CGI: true}
	mut(&cfg)
	b.srv = NewServer(cfg)
	return b
}

// TestCGIDeadlineSheds pins shed-don't-hang through the whole server: a CGI
// request whose deadline passes mid-flight is abandoned — the client gets a
// prompt connection abort instead of waiting out the slow worker — and
// lands in both the shed and aborted stats with no bytes counted.
func TestCGIDeadlineSheds(t *testing.T) {
	b := newBedCfg(FlashLite, func(c *Config) {
		c.CGIWorkers, c.CGIDepth = 1, 1
		c.CGIDeadline = time.Millisecond
	})
	var st ClientStats
	b.eng.Go("client", func(p *sim.Proc) {
		cfg := b.clientCfg(false, nil)
		sent := false
		RunClient(p, cfg, func() (string, bool) {
			if sent {
				return "", false
			}
			sent = true
			return CGIDocPath(1 << 20), true // ~8ms of worker time, well past 1ms
		}, &st)
	})
	b.eng.Run()
	if st.Errors != 1 {
		t.Errorf("client errors=%d, want 1 (the shed request aborts the connection)", st.Errors)
	}
	ss := b.srv.Stats()
	reqs, body, total, aborted := ss.Requests, ss.BodyBytes, ss.TotalBytes, ss.Aborted
	if reqs != 1 || aborted != 1 {
		t.Errorf("requests=%d aborted=%d, want 1/1", reqs, aborted)
	}
	if b.srv.Stats().Shed != 1 {
		t.Errorf("shed=%d, want 1", b.srv.Stats().Shed)
	}
	if body != 0 || total != 0 {
		t.Errorf("shed response still counted bytes: body=%d total=%d", body, total)
	}
	// The abandoned id must retire once the worker's late END arrives.
	if inflight := b.srv.cgi.pool.Workers()[0].Mux().Inflight(); inflight != 0 {
		t.Errorf("%d requests still in flight after drain", inflight)
	}
}

// TestCGIReplaySurvivesWorkerKill pins the replay policy end to end: with
// CGIReplay on, a worker killed mid-request costs the client nothing — the
// idempotent CGI request re-dispatches to a healthy worker and the full
// document arrives, with no shed and no abort.
func TestCGIReplaySurvivesWorkerKill(t *testing.T) {
	b := newBedCfg(FlashLite, func(c *Config) {
		c.CGIWorkers, c.CGIDepth = 2, 2
		c.CGIReplay = true
	})
	const size = 1 << 20
	var st ClientStats
	var got []byte
	b.eng.Go("client", func(p *sim.Proc) {
		cfg := b.clientCfg(false, func(_ string, body []byte) {
			got = append([]byte(nil), body...)
		})
		sent := false
		RunClient(p, cfg, func() (string, bool) {
			if sent {
				return "", false
			}
			sent = true
			return CGIDocPath(size), true
		}, &st)
	})
	b.eng.Go("killer", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // the handler is packing the document
		b.srv.cgi.pool.Workers()[0].Conn().Close(p)
	})
	b.eng.Run()
	if st.Errors != 0 {
		t.Fatalf("client errors=%d, want 0 — replay must absorb the worker death", st.Errors)
	}
	if !bytes.Equal(got, cgiDoc(size)) {
		t.Fatalf("replayed response served wrong bytes (%d)", len(got))
	}
	if b.srv.cgi.pool.Replays() == 0 {
		t.Error("no replays recorded despite the mid-flight worker kill")
	}
	aborted := b.srv.Stats().Aborted
	if aborted != 0 || b.srv.Stats().Shed != 0 {
		t.Errorf("aborted=%d shed=%d, want 0/0", aborted, b.srv.Stats().Shed)
	}
}
