package apps

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

const flakyDocSize = 8000

func flakyDoc() []byte {
	d := make([]byte, flakyDocSize)
	for i := range d {
		d[i] = byte(i*7 + 1)
	}
	return d
}

// flakyBed wires client → proxy → a hand-rolled origin whose accept loop
// injects failures: while *fail > 0, each accepted connection is closed
// before a single response byte (the proxy's in-flight fetch dies mid-read).
type flakyBed struct {
	eng    *sim.Engine
	px     *Proxy
	client *netsim.Host
	link   *netsim.Link
	lst    *netsim.Listener
	fail   int
	served int
}

func newFlakyBed(mut func(*ProxyConfig)) *flakyBed {
	eng := sim.New()
	costs := sim.DefaultCosts()
	b := &flakyBed{eng: eng}

	origin := kernel.NewMachine(eng, costs, kernel.Config{})
	originLst := netsim.NewListener(origin.Host)
	oproc := origin.NewProcess("origin", 1<<20)
	olfd := origin.Listen(oproc, originLst)
	eng.Go("origin.accept", func(p *sim.Proc) {
		for {
			cfd, err := origin.Accept(p, oproc, olfd)
			if err != nil {
				return
			}
			if b.fail > 0 {
				b.fail--
				origin.Close(p, oproc, cfd)
				continue
			}
			eng.Go("origin.conn", func(hp *sim.Proc) {
				var pending []byte
				buf := make([]byte, 4096)
				for {
					if _, _, ok := httpd.ParseRequest(pending); ok {
						break
					}
					n, err := origin.ReadPOSIX(hp, oproc, cfd, buf)
					if err != nil {
						origin.Close(hp, oproc, cfd)
						return
					}
					pending = append(pending, buf[:n]...)
				}
				body := flakyDoc()
				origin.WritePOSIX(hp, oproc, cfd, httpd.FormatResponseHeader("origin", int64(len(body))))
				origin.WritePOSIX(hp, oproc, cfd, body)
				b.served++
				origin.Close(hp, oproc, cfd)
			})
		}
	})

	proxy := kernel.NewMachine(eng, costs, kernel.Config{ChecksumCache: true})
	b.lst = netsim.NewListener(proxy.Host)
	originLink := netsim.NewLink(eng, proxy.Host, origin.Host, 100_000_000, 100*time.Microsecond)
	cfg := ProxyConfig{
		Mode:       ProxyZeroCopy,
		Machine:    proxy,
		Listener:   b.lst,
		Origin:     originLst,
		OriginLink: originLink,
		OriginRef:  false,
	}
	mut(&cfg)
	b.px = NewProxy(cfg)

	b.client = netsim.NewHost(eng, costs, "client", false, nil, nil)
	b.link = netsim.NewLink(eng, b.client, proxy.Host, 100_000_000, 100*time.Microsecond)
	return b
}

// get issues one request through the proxy on proc p and returns the raw
// response bytes (status line included; empty on connection failure).
func (b *flakyBed) get(p *sim.Proc, path string) []byte {
	conn := netsim.Dial(p, b.client, b.link, b.lst, netsim.ConnOpts{
		Tss: 64 << 10, ServerRefMode: b.px.cfg.Mode.RefMode(),
	})
	if conn == nil {
		return nil
	}
	ep := conn.ClientEnd()
	ep.Send(p, netsim.Payload{Data: httpd.FormatRequest(path, false)}, nil)
	var raw []byte
	for {
		d, alive := ep.Recv(p)
		if !alive {
			break
		}
		raw = append(raw, d.Bytes()...)
		d.Release()
	}
	ep.Close(p)
	return raw
}

// body strips the response header.
func body(raw []byte) []byte {
	if i := bytes.Index(raw, []byte("\r\n\r\n")); i >= 0 {
		return raw[i+4:]
	}
	return nil
}

// TestProxyRetryRecoversTransientOriginFailure pins bounded retries: two
// origin failures in a row are absorbed by backoff-spaced reattempts and
// the client still gets the document, never a 502.
func TestProxyRetryRecoversTransientOriginFailure(t *testing.T) {
	b := newFlakyBed(func(c *ProxyConfig) {
		c.Retries = 3
		c.RetryBackoff = 200 * time.Microsecond
	})
	b.fail = 2
	var raw []byte
	b.eng.Go("client", func(p *sim.Proc) {
		raw = b.get(p, "/d")
	})
	b.eng.Run()
	if !bytes.Equal(body(raw), flakyDoc()) {
		t.Fatalf("client got %d body bytes, want the %d-byte document", len(body(raw)), flakyDocSize)
	}
	if got := b.px.Stats().Retries; got != 2 {
		t.Errorf("retries=%d, want 2", got)
	}
	if aborted := b.px.Stats().Aborted; aborted != 0 {
		t.Errorf("aborted=%d, want 0 — retries must absorb the transient failure", aborted)
	}
}

// TestProxyServeStaleOnOriginOutage pins graceful degradation: a
// TTL-expired entry is served when the origin cannot be refetched, stays
// cached for the next request, and a recovered origin refreshes it again.
func TestProxyServeStaleOnOriginOutage(t *testing.T) {
	b := newFlakyBed(func(c *ProxyConfig) {
		c.TTL = time.Millisecond
		c.ServeStale = true
		c.Retries = 1
		c.RetryBackoff = 100 * time.Microsecond
	})
	want := flakyDoc()
	var warm, stale, fresh []byte
	b.eng.Go("client", func(p *sim.Proc) {
		warm = b.get(p, "/d") // healthy origin: cached
		p.Sleep(2 * time.Millisecond)
		b.fail = 1 << 30       // origin outage
		stale = b.get(p, "/d") // expired + unreachable: stale copy
		b.fail = 0             // origin recovers
		fresh = b.get(p, "/d") // still expired: refetch succeeds
	})
	b.eng.Run()
	for name, raw := range map[string][]byte{"warm": warm, "stale": stale, "fresh": fresh} {
		if !bytes.Equal(body(raw), want) {
			t.Errorf("%s response served wrong bytes (%d)", name, len(body(raw)))
		}
	}
	if got := b.px.Stats().StaleServed; got != 1 {
		t.Errorf("staleServed=%d, want 1", got)
	}
	if aborted := b.px.Stats().Aborted; aborted != 0 {
		t.Errorf("aborted=%d, want 0 — the stale copy must stand in for the origin", aborted)
	}
	if b.served != 2 {
		t.Errorf("origin served %d fetches, want 2 (warmup + post-recovery refresh)", b.served)
	}
	st := b.px.Stats()
	reqs, hits, misses := st.Requests, st.Hits, st.Misses
	if hits+misses != reqs {
		t.Errorf("hit/miss accounting broke: %d + %d != %d", hits, misses, reqs)
	}
}

// TestProxyDeadlineSheds504 pins shed-don't-hang: when the fetch deadline
// would pass during retry backoff, the client gets 504 Gateway Timeout now
// instead of waiting out the timers.
func TestProxyDeadlineSheds504(t *testing.T) {
	b := newFlakyBed(func(c *ProxyConfig) {
		c.Retries = 5
		c.RetryBackoff = 2 * time.Millisecond
		c.Deadline = 2 * time.Millisecond
	})
	b.fail = 1 << 30
	var raw []byte
	var elapsed time.Duration
	b.eng.Go("client", func(p *sim.Proc) {
		start := p.Now()
		raw = b.get(p, "/d")
		elapsed = p.Now().Sub(start)
	})
	b.eng.Run()
	if !strings.HasPrefix(string(raw), "HTTP/1.1 504") {
		t.Fatalf("client got %q, want a 504 status", raw)
	}
	if b.px.Stats().Shed != 1 {
		t.Errorf("shed=%d, want 1", b.px.Stats().Shed)
	}
	// Shedding means answering promptly: well before the 5 backoffs
	// (>20ms) the retry schedule would otherwise wait out.
	if elapsed > 5*time.Millisecond {
		t.Errorf("504 took %v — the proxy hung through its backoff schedule", elapsed)
	}
}
