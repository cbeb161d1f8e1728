package apps

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/core"
	"iolite/internal/httpd"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// newProxyBedTTL is newProxyBed with an entry TTL.
func newProxyBedTTL(mode ProxyMode, originKind httpd.Kind, ttl time.Duration) *proxyBed {
	b := newProxyBedCapped(mode, originKind, 0)
	// Rebuild the proxy with the TTL; the bed's other wiring is reusable.
	cfg := b.px.cfg
	cfg.TTL = ttl
	cfg.Listener = netsim.NewListener(b.proxy.Host)
	b.lst = cfg.Listener
	b.px = NewProxy(cfg)
	return b
}

// TestProxyTTLExpiresEntries: with a TTL shorter than the gap between
// requests, every re-request finds a stale entry, retires it, and
// refetches from the origin — the cache no longer serves forever.
func TestProxyTTLExpiresEntries(t *testing.T) {
	for _, mode := range []ProxyMode{ProxyCopy, ProxyZeroCopy, ProxySplice} {
		t.Run(mode.String(), func(t *testing.T) {
			b := newProxyBedTTL(mode, httpd.FlashLite, time.Microsecond)
			f := b.origin.FS.Create("/a", 20000)
			want := b.origin.FS.Expected(f, 0, f.Size())

			got := b.fetch(t, []string{"/a", "/a", "/a"})
			if !bytes.Equal(got["/a"], want) {
				t.Fatal("expired entry refetch served wrong bytes")
			}
			st := b.px.Stats()
			reqs, hits, misses, aborted := st.Requests, st.Hits, st.Misses, st.Aborted
			if reqs != 3 || aborted != 0 {
				t.Fatalf("reqs=%d aborted=%d", reqs, aborted)
			}
			if hits != 0 || misses != 3 {
				t.Fatalf("hits=%d misses=%d; a 1µs TTL must expire every entry", hits, misses)
			}
			if b.px.Stats().Expired != 2 {
				t.Fatalf("expired=%d, want 2 (first request found no entry)", b.px.Stats().Expired)
			}
			// Expiry reclaimed the stale entries' resources (splice fds
			// included): at most the listener plus one fd per live entry.
			if n := b.px.proc.NumFDs(); n > 1+len(b.px.cache) {
				t.Fatalf("expiry leaked descriptors: %d open, %d entries", n, len(b.px.cache))
			}
		})
	}
}

// TestProxyInsertDuplicatePathEvictsOldEntry: two concurrent misses on
// one path (the window the TTL expiry re-opens every period) both
// insert; the second insert must retire the first entry — releasing its
// aggregate and its cacheBytes accounting — instead of orphaning it
// behind a map overwrite.
func TestProxyInsertDuplicatePathEvictsOldEntry(t *testing.T) {
	b := newProxyBed(ProxyZeroCopy, httpd.FlashLite)
	px := b.px
	b.eng.Go("t", func(p *sim.Proc) {
		first := &proxyEntry{path: "/x", fd: -1, resp: core.PackBytes(p, px.proc.Pool, make([]byte, 1000)), size: 1000}
		second := &proxyEntry{path: "/x", fd: -1, resp: core.PackBytes(p, px.proc.Pool, make([]byte, 1000)), size: 1000}
		px.insert(p, first)
		px.insert(p, second)
		if px.cache["/x"] != second {
			t.Error("second insert did not win the slot")
		}
		if px.cacheBytes != 1000 {
			t.Errorf("cacheBytes = %d after duplicate insert, want 1000", px.cacheBytes)
		}
		if first.resp != nil {
			t.Error("first entry's aggregate was orphaned, not released")
		}
	})
	b.eng.Run()
}

// TestProxyTTLGenerousKeepsServingFromCache: a TTL far beyond the run's
// duration must change nothing — repeat requests stay cache hits.
func TestProxyTTLGenerousKeepsServingFromCache(t *testing.T) {
	b := newProxyBedTTL(ProxyZeroCopy, httpd.FlashLite, time.Hour)
	f := b.origin.FS.Create("/a", 20000)
	want := b.origin.FS.Expected(f, 0, f.Size())

	got := b.fetch(t, []string{"/a", "/a", "/a"})
	if !bytes.Equal(got["/a"], want) {
		t.Fatal("wrong bytes")
	}
	hits, misses := b.px.Stats().Hits, b.px.Stats().Misses
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if b.px.Stats().Expired != 0 {
		t.Fatalf("expired=%d, want 0", b.px.Stats().Expired)
	}
}
