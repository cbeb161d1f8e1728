package httpd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"iolite/internal/cache"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// bed is a one-server one-client-machine test fixture.
type bed struct {
	eng    *sim.Engine
	m      *kernel.Machine
	lst    *netsim.Listener
	client *netsim.Host
	link   *netsim.Link
	srv    *Server
}

func newBed(kind Kind, cgi bool) *bed { return newBedPlaced(kind, cgi, "") }

// newBedPlaced is newBed with an explicit CGI worker placement.
func newBedPlaced(kind Kind, cgi bool, placement string) *bed {
	eng := sim.New()
	costs := sim.DefaultCosts()
	var cfg kernel.Config
	if kind.Lite() {
		cfg = kernel.Config{Policy: cache.NewGDS(), ChecksumCache: true}
	}
	m := kernel.NewMachine(eng, costs, cfg)
	b := &bed{eng: eng, m: m}
	b.lst = netsim.NewListener(m.Host)
	b.client = netsim.NewHost(eng, costs, "client", false, nil, nil)
	b.link = netsim.NewLink(eng, b.client, m.Host, 100_000_000, 100*time.Microsecond)
	b.srv = NewServer(Config{Kind: kind, Machine: m, Listener: b.lst, CGI: cgi, CGIPlacement: placement})
	return b
}

func (b *bed) clientCfg(persistent bool, onResp func(string, []byte)) ClientConfig {
	return ClientConfig{
		Host:       b.client,
		Link:       b.link,
		Listener:   b.lst,
		Tss:        64 << 10,
		RefServer:  b.srv.cfg.Kind.Lite(),
		Persistent: persistent,
		OnResponse: onResp,
	}
}

// fetchOnce runs a single request and returns the body.
func (b *bed) fetchOnce(t *testing.T, path string) []byte {
	t.Helper()
	var got []byte
	done := false
	b.eng.Go("client", func(p *sim.Proc) {
		cfg := b.clientCfg(false, func(_ string, body []byte) {
			got = append([]byte(nil), body...)
			done = true
		})
		sent := false
		var st ClientStats
		RunClient(p, cfg, func() (string, bool) {
			if sent {
				return "", false
			}
			sent = true
			return path, true
		}, &st)
		if st.Errors != 0 {
			t.Errorf("client errors: %d", st.Errors)
		}
	})
	b.eng.Run()
	if !done {
		t.Fatalf("no response for %s", path)
	}
	return got
}

func TestStaticServingAllKinds(t *testing.T) {
	for _, kind := range []Kind{FlashLite, FlashLiteSplice, Flash, Apache} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBed(kind, false)
			f := b.m.FS.Create("/doc.html", 37123) // unaligned size
			want := b.m.FS.Expected(f, 0, f.Size())
			got := b.fetchOnce(t, "/doc.html")
			if !bytes.Equal(got, want) {
				t.Fatalf("%s served wrong bytes (%d vs %d)", kind, len(got), len(want))
			}
		})
	}
}

func TestCGIServingAllKinds(t *testing.T) {
	for _, kind := range []Kind{FlashLite, FlashLiteSplice, Flash, Apache} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBed(kind, true)
			want := cgiDoc(20000)
			got := b.fetchOnce(t, CGIDocPath(20000))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s CGI served wrong bytes (%d vs %d)", kind, len(got), len(want))
			}
		})
	}
}

func TestPersistentConnectionReuse(t *testing.T) {
	b := newBed(FlashLite, false)
	b.m.FS.Create("/a", 5000)
	var st ClientStats
	b.eng.Go("client", func(p *sim.Proc) {
		n := 0
		RunClient(p, b.clientCfg(true, nil), func() (string, bool) {
			n++
			return "/a", n <= 10
		}, &st)
	})
	b.eng.Run()
	if st.Requests != 10 {
		t.Fatalf("requests = %d, want 10", st.Requests)
	}
	if acc := b.lst.Accepted(); acc != 1 {
		t.Fatalf("connections = %d, want 1 (keep-alive)", acc)
	}
}

func TestNonpersistentDialsPerRequest(t *testing.T) {
	b := newBed(Flash, false)
	b.m.FS.Create("/a", 5000)
	var st ClientStats
	b.eng.Go("client", func(p *sim.Proc) {
		n := 0
		RunClient(p, b.clientCfg(false, nil), func() (string, bool) {
			n++
			return "/a", n <= 5
		}, &st)
	})
	b.eng.Run()
	if st.Requests != 5 || b.lst.Accepted() != 5 {
		t.Fatalf("requests=%d conns=%d, want 5/5", st.Requests, b.lst.Accepted())
	}
}

func Test404(t *testing.T) {
	b := newBed(Flash, false)
	var errors int64
	b.eng.Go("client", func(p *sim.Proc) {
		var st ClientStats
		sent := false
		RunClient(p, b.clientCfg(false, nil), func() (string, bool) {
			if sent {
				return "", false
			}
			sent = true
			return "/missing", true
		}, &st)
		errors = st.Errors
	})
	b.eng.Run()
	if errors != 0 {
		t.Fatalf("404 path mishandled: %d errors", errors)
	}
}

// measure runs `reqs` sequential requests of one file and returns the mean
// server CPU time per request — the quantity the paper's bandwidth numbers
// reflect once the server CPU is the bottleneck. The cold first request is
// excluded.
func measure(t *testing.T, kind Kind, cgi, persistent bool, path string, size int64, reqs int) sim.Duration {
	t.Helper()
	b := newBed(kind, cgi)
	if !cgi {
		b.m.FS.Create(path, size)
	}
	var busy sim.Duration
	b.eng.Go("client", func(p *sim.Proc) {
		var st ClientStats
		n := 0
		RunClient(p, b.clientCfg(persistent, nil), func() (string, bool) {
			if n == 1 { // discard the cold-cache first request
				b.m.CPU().ResetMeters()
			}
			n++
			return path, n <= reqs
		}, &st)
		busy = b.m.CPU().BusyTime()
		if st.Errors > 0 {
			t.Errorf("%v errors", st.Errors)
		}
	})
	b.eng.Run()
	return busy / sim.Duration(reqs-1)
}

func TestFlashLiteBeatsFlashBeatsApacheOnLargeFiles(t *testing.T) {
	const size = 100 << 10
	fl := measure(t, FlashLite, false, true, "/big", size, 20)
	f := measure(t, Flash, false, true, "/big", size, 20)
	a := measure(t, Apache, false, true, "/big", size, 20)
	if !(fl < f && f < a) {
		t.Fatalf("per-request times: Flash-Lite=%v Flash=%v Apache=%v; want strictly increasing", fl, f, a)
	}
	// The paper's single-file ordering at large sizes: Flash-Lite ≥ ~1.2x
	// Flash on per-request service time (38-43% bandwidth advantage is
	// measured under concurrency; serially the gap is the data-touching
	// work).
	if float64(f)/float64(fl) < 1.1 {
		t.Errorf("Flash-Lite advantage too small: %v vs %v", fl, f)
	}
}

func TestSmallFilesControlDominated(t *testing.T) {
	// §5.1: ≤5 KB requests perform equally on Flash and Flash-Lite.
	const size = 2 << 10
	fl := measure(t, FlashLite, false, false, "/small", size, 30)
	f := measure(t, Flash, false, false, "/small", size, 30)
	ratio := float64(f) / float64(fl)
	if ratio < 0.9 || ratio > 1.35 {
		t.Fatalf("small-file ratio Flash/FlashLite = %.2f, want ≈1", ratio)
	}
}

func TestCGIOverheadRatios(t *testing.T) {
	// §5.3: conventional servers roughly halve on CGI; Flash-Lite stays
	// close to its static speed.
	const size = 64 << 10
	flStatic := measure(t, FlashLite, false, true, "/d", size, 20)
	flCGI := measure(t, FlashLite, true, true, CGIDocPath(size), size, 20)
	fStatic := measure(t, Flash, false, true, "/d", size, 20)
	fCGI := measure(t, Flash, true, true, CGIDocPath(size), size, 20)

	flRatio := float64(flStatic) / float64(flCGI)
	fRatio := float64(fStatic) / float64(fCGI)
	if flRatio < 0.70 {
		t.Errorf("Flash-Lite CGI at %.0f%% of static speed, want ≳75%%", flRatio*100)
	}
	if fRatio > 0.75 {
		t.Errorf("Flash CGI at %.0f%% of static speed, want ≲70%% (copy-bound pipes)", fRatio*100)
	}
	if flRatio <= fRatio {
		t.Errorf("Flash-Lite CGI ratio (%.2f) must beat Flash's (%.2f)", flRatio, fRatio)
	}
}

func TestServerStatsAccumulate(t *testing.T) {
	b := newBed(FlashLite, false)
	b.m.FS.Create("/a", 10000)
	b.eng.Go("client", func(p *sim.Proc) {
		var st ClientStats
		n := 0
		RunClient(p, b.clientCfg(true, nil), func() (string, bool) {
			n++
			return "/a", n <= 4
		}, &st)
	})
	b.eng.Run()
	st := b.srv.Stats()
	reqs, body, total := st.Requests, st.BodyBytes, st.TotalBytes
	if reqs != 4 || body != 40000 || total <= body {
		t.Fatalf("stats: reqs=%d body=%d total=%d", reqs, body, total)
	}
	b.srv.ResetMeters()
	if got := b.srv.Stats(); got != (ServerStats{}) {
		t.Fatalf("stats after ResetMeters = %+v, want zero", got)
	}
}

func TestManyClientsManyFiles(t *testing.T) {
	// Integration smoke: 8 concurrent clients, 20 files, all bytes right.
	b := newBed(FlashLite, false)
	for i := 0; i < 20; i++ {
		b.m.FS.Create(fmt.Sprintf("/f%d", i), int64(1000+i*3777))
	}
	bad := 0
	for c := 0; c < 8; c++ {
		c := c
		b.eng.Go("client", func(p *sim.Proc) {
			var st ClientStats
			n := 0
			cfg := b.clientCfg(true, func(path string, body []byte) {
				var idx int
				fmt.Sscanf(path, "/f%d", &idx)
				f := b.m.FS.ByID(b.srv.openFDs[path].f.ID)
				if !bytes.Equal(body, b.m.FS.Expected(f, 0, f.Size())) {
					bad++
				}
			})
			RunClient(p, cfg, func() (string, bool) {
				n++
				return fmt.Sprintf("/f%d", (n*7+c*3)%20), n <= 15
			}, &st)
		})
	}
	b.eng.Run()
	if bad != 0 {
		t.Fatalf("%d corrupted responses", bad)
	}
	if live := b.eng.LiveProcs(); live > 60 {
		t.Fatalf("leaked procs: %d", live)
	}
}
