package kernel

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"iolite/internal/core"
	"iolite/internal/ipcsim"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// Tests of the kernel splice fast path: zero-copy file→socket serving with
// checksum-cache reuse, partial splices, EPIPE, capability negotiation, and
// Dup'd cursors.

// spliceBed is one process holding a file descriptor and a ref-mode pipe to
// a draining consumer, the simplest splice sink.
type spliceBed struct {
	e    *sim.Engine
	m    *Machine
	pr   *Process
	cons *Process
	rfd  int
	wfd  int
	got  []byte
}

func newSpliceBed(t *testing.T, fileSize int64) *spliceBed {
	t.Helper()
	e, m := newMachine(Config{})
	b := &spliceBed{e: e, m: m}
	m.FS.Create("/doc", fileSize)
	b.pr = m.NewProcess("app", 1<<20)
	b.cons = m.NewProcess("cons", 1<<20)
	b.rfd, b.wfd = m.Pipe2(b.cons, b.pr, ipcsim.ModeRef)
	e.Go("cons", func(p *sim.Proc) {
		for {
			a, err := m.IOLRead(p, b.cons, b.rfd, MaxIO)
			if err != nil {
				return
			}
			b.got = append(b.got, a.Materialize()...)
			a.Release()
		}
	})
	return b
}

func TestSplicePartialAndShort(t *testing.T) {
	b := newSpliceBed(t, 10<<10)
	f := b.m.FS.Lookup(nil, "/doc")
	run(t, b.e, func(p *sim.Proc) {
		fd, _ := b.m.Open(p, b.pr, "/doc")
		// Partial: n smaller than the file moves exactly n and advances the
		// cursor.
		moved, err := b.m.Splice(p, b.pr, b.wfd, fd, 4<<10)
		if err != nil || moved != 4<<10 {
			t.Fatalf("partial splice: moved=%d err=%v", moved, err)
		}
		// Larger than the remainder: a short splice, like a short write.
		moved, err = b.m.Splice(p, b.pr, b.wfd, fd, 1<<20)
		if err != nil || moved != 6<<10 {
			t.Fatalf("short splice: moved=%d err=%v, want %d", moved, err, 6<<10)
		}
		// At EOF.
		if _, err := b.m.Splice(p, b.pr, b.wfd, fd, 1); err != io.EOF {
			t.Fatalf("splice at EOF: %v, want io.EOF", err)
		}
		b.m.Close(p, b.pr, b.wfd)
	})
	if !bytes.Equal(b.got, b.m.FS.Expected(f, 0, f.Size())) {
		t.Fatal("spliced bytes corrupted")
	}
}

func TestSpliceIntoClosedReaderPipe(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	pr := m.NewProcess("app", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, pr, ipcsim.ModeRef)
	run(t, e, func(p *sim.Proc) {
		fd, _ := m.Open(p, pr, "/doc")
		m.Close(p, cons, rfd) // reader walks away
		if _, err := m.Splice(p, pr, wfd, fd, 4096); !errors.Is(err, ErrClosed) {
			t.Fatalf("splice into closed-reader pipe: %v, want ErrClosed", err)
		}
	})
}

func TestSpliceCapabilityNegotiation(t *testing.T) {
	e, m := newMachine(Config{})
	m.FS.Create("/doc", 4096)
	pr := m.NewProcess("app", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	lst := netsim.NewListener(m.Host)
	run(t, e, func(p *sim.Proc) {
		fd, _ := m.Open(p, pr, "/doc")
		// Copy-mode pipes have no sealed buffers: not a splice sink.
		_, cwfd := m.Pipe2(cons, pr, ipcsim.ModeCopy)
		if _, err := m.Splice(p, pr, cwfd, fd, 100); !errors.Is(err, ErrNotSupported) {
			t.Errorf("splice into copy pipe: %v, want ErrNotSupported", err)
		}
		// Listeners are neither source nor sink.
		lfd := m.Listen(pr, lst)
		refR, refW := m.Pipe2(cons, pr, ipcsim.ModeRef)
		if _, err := m.Splice(p, pr, refW, lfd, 100); !errors.Is(err, ErrNotSupported) {
			t.Errorf("splice from listener: %v, want ErrNotSupported", err)
		}
		// Files are not sinks.
		if _, err := m.Splice(p, pr, fd, fd, 100); !errors.Is(err, ErrNotSupported) {
			t.Errorf("splice into file: %v, want ErrNotSupported", err)
		}
		// Streams are not positional sources.
		if _, err := m.SpliceAt(p, pr, refW, refR, 0, 100); !errors.Is(err, ErrNotSupported) {
			t.Errorf("SpliceAt from pipe: %v, want ErrNotSupported", err)
		}
		// Bad fds are ErrBadFD on either side.
		if _, err := m.Splice(p, pr, 99, fd, 100); !errors.Is(err, ErrBadFD) {
			t.Errorf("splice into bad fd: %v, want ErrBadFD", err)
		}
		if _, err := m.Splice(p, pr, refW, 99, 100); !errors.Is(err, ErrBadFD) {
			t.Errorf("splice from bad fd: %v, want ErrBadFD", err)
		}
	})
}

func TestSpliceDupSharesCursor(t *testing.T) {
	b := newSpliceBed(t, 8<<10)
	f := b.m.FS.Lookup(nil, "/doc")
	run(t, b.e, func(p *sim.Proc) {
		fd, _ := b.m.Open(p, b.pr, "/doc")
		dup, err := b.m.Dup(p, b.pr, fd)
		if err != nil {
			t.Fatalf("Dup: %v", err)
		}
		if moved, err := b.m.Splice(p, b.pr, b.wfd, fd, 4<<10); err != nil || moved != 4<<10 {
			t.Fatalf("first half: moved=%d err=%v", moved, err)
		}
		// The dup shares the open-file entry, so its splice continues from
		// the shared cursor rather than restarting at 0.
		if moved, err := b.m.Splice(p, b.pr, b.wfd, dup, 4<<10); err != nil || moved != 4<<10 {
			t.Fatalf("second half via dup: moved=%d err=%v", moved, err)
		}
		if off, _ := b.m.Seek(p, b.pr, fd, 0, io.SeekCurrent); off != 8<<10 {
			t.Fatalf("cursor after dup splice = %d, want %d", off, 8<<10)
		}
		b.m.Close(p, b.pr, b.wfd)
	})
	if !bytes.Equal(b.got, b.m.FS.Expected(f, 0, f.Size())) {
		t.Fatal("dup-cursor splice corrupted the stream")
	}
}

func TestAggDescReadSeekSplice(t *testing.T) {
	e, m := newMachine(Config{})
	pr := m.NewProcess("app", 1<<20)
	cons := m.NewProcess("cons", 1<<20)
	rfd, wfd := m.Pipe2(cons, pr, ipcsim.ModeRef)
	payload := bytes.Repeat([]byte("sealed-object!"), 300)
	run(t, e, func(p *sim.Proc) {
		fd := pr.Install(NewAggDesc(m, core.PackBytes(p, pr.Pool, payload)))
		d, _ := pr.Desc(fd)
		if d.Kind() != KindObject || !d.RefMode() || !d.Seekable() {
			t.Fatal("object descriptor capabilities wrong")
		}
		// Positional IOL_read does not move the cursor.
		a, err := m.IOLReadAt(p, pr, fd, 7, 14)
		if err != nil || !a.Equal(payload[7:21]) {
			t.Fatalf("IOLReadAt: err=%v", err)
		}
		a.Release()
		// Writes are refused.
		if _, err := m.WritePOSIX(p, pr, fd, []byte("x")); !errors.Is(err, ErrNotSupported) {
			t.Fatalf("WritePOSIX on object: %v", err)
		}
		// Splice the whole object through a pipe and verify the bytes.
		if moved, err := m.SpliceAt(p, pr, wfd, fd, 0, MaxIO); err != nil || moved != int64(len(payload)) {
			t.Fatalf("SpliceAt object: moved=%d err=%v", moved, err)
		}
		m.Close(p, pr, wfd)
		got, err := m.IOLRead(p, cons, rfd, MaxIO)
		if err != nil || !got.Equal(payload) {
			t.Fatalf("object splice corrupted: err=%v", err)
		}
		got.Release()
		m.Close(p, pr, fd)
	})
}

// serveOnce accepts one connection on lfd and serves the document either by
// splice (one SpliceAt) or by the POSIX pair (read into a buffer, write to
// the socket), then closes the connection.
func serveOnce(t *testing.T, m *Machine, pr *Process, lfd, ffd int, size int64, splice bool) func(*sim.Proc) {
	return func(p *sim.Proc) {
		cfd, err := m.Accept(p, pr, lfd)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		if splice {
			if moved, err := m.SpliceAt(p, pr, cfd, ffd, 0, size); err != nil || moved != size {
				t.Errorf("SpliceAt: moved=%d err=%v", moved, err)
			}
		} else {
			buf := make([]byte, size)
			if _, err := m.Seek(p, pr, ffd, 0, io.SeekStart); err != nil {
				t.Errorf("Seek: %v", err)
			}
			if _, err := m.ReadPOSIX(p, pr, ffd, buf); err != nil {
				t.Errorf("ReadPOSIX: %v", err)
			}
			if _, err := m.WritePOSIX(p, pr, cfd, buf); err != nil {
				t.Errorf("WritePOSIX: %v", err)
			}
		}
		m.Close(p, pr, cfd)
	}
}

// fetchOnce dials, drains one served document, and returns its bytes.
func fetchOnce(t *testing.T, m *Machine, pr *Process, link *netsim.Link, lst *netsim.Listener, ref bool) []byte {
	t.Helper()
	var got []byte
	m.Eng.Go("cli", func(p *sim.Proc) {
		cfd, err := m.Connect(p, pr, link, lst, netsim.ConnOpts{ServerRefMode: ref})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			a, err := m.IOLRead(p, pr, cfd, MaxIO)
			if err != nil {
				break
			}
			got = append(got, a.Materialize()...)
			a.Release()
		}
		m.Close(p, pr, cfd)
	})
	m.Eng.Run()
	return got
}

// TestSpliceStaticPathZeroCopyCachedCksum is the PR's acceptance check: the
// splice static path charges zero copy cost for a cached document, and
// re-serving it hits the checksum cache (no per-byte checksum charge on the
// send side), while the POSIX baseline charges both every time.
func TestSpliceStaticPathZeroCopyCachedCksum(t *testing.T) {
	const size = int64(96 << 10)
	e := sim.New()
	costs := sim.DefaultCosts()
	server := NewMachine(e, costs, Config{ChecksumCache: true})
	client := NewMachine(e, costs, Config{})
	link := netsim.NewLink(e, client.Host, server.Host, 100_000_000, 100*1000)
	f := server.FS.Create("/doc", size)
	srvPr := server.NewProcess("srv", 1<<20)
	cliPr := client.NewProcess("cli", 1<<20)
	lst := netsim.NewListener(server.Host)
	lfd := server.Listen(srvPr, lst)
	want := server.FS.Expected(f, 0, size)

	var ffd int
	e.Go("open", func(p *sim.Proc) {
		ffd, _ = server.Open(p, srvPr, "/doc")
	})
	e.Run()

	serve := func(splice bool) (copied, ckHitB, ckMissB int64, body []byte) {
		costs.ResetMeters()
		server.CkCache.ResetMeters()
		e.Go("srv", serveOnce(t, server, srvPr, lfd, ffd, size, splice))
		body = fetchOnce(t, client, cliPr, link, lst, splice)
		copied = costs.Stats().CopiedBytes
		ckHitB, ckMissB = server.CkCache.Stats().HitBytes, server.CkCache.Stats().MissBytes
		return
	}

	// Serve 1 (splice, cold): warms the file cache and the checksum cache.
	var ckHit int64
	copied, _, ckMiss, body := serve(true)
	if !bytes.Equal(body, want) {
		t.Fatal("cold splice served wrong bytes")
	}
	if copied != 0 {
		t.Errorf("cold splice charged %d copied bytes, want 0", copied)
	}
	if ckMiss < size {
		t.Errorf("cold splice checksummed %d bytes, want ≥ %d", ckMiss, size)
	}

	// Serve 2 (splice, warm): zero copies AND zero per-byte checksum work —
	// every segment's sum comes from the cache.
	copied, ckHit, ckMiss, body = serve(true)
	if !bytes.Equal(body, want) {
		t.Fatal("warm splice served wrong bytes")
	}
	if copied != 0 {
		t.Errorf("warm splice charged %d copied bytes, want 0", copied)
	}
	if ckMiss != 0 {
		t.Errorf("warm splice missed the checksum cache for %d bytes, want 0", ckMiss)
	}
	if ckHit < size {
		t.Errorf("warm splice checksum-cache hit bytes = %d, want ≥ %d", ckHit, size)
	}

	// POSIX baseline on the same warm machine: read(2) copies the document
	// out of the cache, write(2) copies it into socket buffers, and the
	// send path checksums every byte again (the copy path bypasses the
	// checksum cache entirely).
	copied, ckHit, ckMiss, body = serve(false)
	if !bytes.Equal(body, want) {
		t.Fatal("posix baseline served wrong bytes")
	}
	if copied < 2*size {
		t.Errorf("posix baseline charged %d copied bytes, want ≥ %d (read + socket copy)", copied, 2*size)
	}
	if ckHit != 0 || ckMiss != 0 {
		t.Errorf("posix baseline used the checksum cache (hit %d / miss %d bytes)", ckHit, ckMiss)
	}
}
