package httpd

import (
	"errors"
	"time"

	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/kernel"
	"iolite/internal/mem"
	"iolite/internal/netsim"
	"iolite/internal/obs"
	"iolite/internal/sim"
	"iolite/internal/uring"
)

// Kind selects the server implementation.
type Kind int

// The three measured servers (§5), plus the splice variant of Flash-Lite.
const (
	// FlashLite is Flash ported to the IO-Lite API: IOL_read from the
	// unified cache, header concatenation by aggregate, IOL_write to the
	// socket, cached checksums, customizable cache replacement.
	FlashLite Kind = iota
	// Flash is the aggressive conventional event-driven server: mmap'd
	// files (no read copy), one copy into socket buffers per send,
	// checksums computed every time.
	Flash
	// Apache models a process-per-connection server: Flash's data path
	// plus per-request process overheads and per-connection memory.
	Apache
	// FlashLiteSplice is Flash-Lite with the sendfile-style static path:
	// the header goes out by IOL_write, then Machine.SpliceAt moves the
	// document from the cached file descriptor to the socket in one
	// syscall — no user-space aggregate handling at all.
	FlashLiteSplice
)

// String names the kind as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case FlashLite:
		return "Flash-Lite"
	case Flash:
		return "Flash"
	case Apache:
		return "Apache"
	case FlashLiteSplice:
		return "FL-splice"
	}
	return "unknown"
}

// Lite reports whether the kind runs on the IO-Lite API (reference-mode
// sends, checksum caching, ref pipes to CGI workers).
func (k Kind) Lite() bool { return k == FlashLite || k == FlashLiteSplice }

// Per-request server overheads beyond syscalls and data work. Flash's
// event-driven request handling is lean; Apache's process-per-connection
// model adds scheduling and bookkeeping (§5.2 observes Apache cannot
// exploit persistent connections).
const (
	flashRequestWork  = 35 * time.Microsecond
	apacheRequestWork = 250 * time.Microsecond
	apacheConnMem     = 300 << 10 // per-connection process memory
	apacheMaxClients  = 150
)

// Config configures a server.
type Config struct {
	Kind     Kind
	Machine  *kernel.Machine
	Listener *netsim.Listener
	// CGI serves every request through a FastCGI-style worker instead of
	// the static file path (§5.3). Workers ride the internal/fcgi
	// record-multiplexing subsystem: one pipe pair per worker, many
	// in-flight requests per pipe pair.
	CGI bool
	// CGIWorkers is the FastCGI worker pool size (default 8).
	CGIWorkers int
	// CGIDepth is each worker's mux depth — concurrent requests
	// multiplexed over one worker's pipe pair (default 4).
	CGIDepth int
	// CGIPlacement selects where CGI workers run and how records reach
	// them: "" or "pipe" keeps workers on the server machine over pipe
	// pairs; "sock-local" runs them on the server machine behind
	// loopback TCP; "sock-remote" runs them as processes on a separate
	// worker machine, records over a 1 Gb/s LAN link (IO-Lite servers'
	// ref-mode payloads degrade to exactly one copy at the machine
	// boundary). The pool supervises workers in every placement.
	CGIPlacement string
	// CGIDeadline bounds each CGI request end to end — slot wait,
	// dispatch, and response. A request whose deadline passes is shed (the
	// connection aborts instead of holding a handler proc forever) and
	// counted in Shed(). 0 means no deadline.
	CGIDeadline time.Duration
	// CGIReplay lets the worker pool re-dispatch requests lost to a worker
	// death or deadline onto a healthy worker. CGI document requests are
	// idempotent (pure GETs), so replay is safe; off by default to keep
	// the fail-fast baseline.
	CGIReplay bool
	// Obs, when set, opens a span per request: phase transitions mark
	// accept/parse/cache-lookup/dispatch/send, metered charges bin into
	// the open phase, and the span's trace id rides fcgi record headers to
	// CGI workers. Nil keeps the server entirely uninstrumented — every
	// span method on the resulting nil spans is a no-op.
	Obs *obs.Collector
}

// openEntry is one slot of the server's open-FD cache: the descriptor the
// server holds open for a path plus the inode for metadata and mmap.
type openEntry struct {
	f  *fsim.File
	fd int
}

// Server is a running web server.
type Server struct {
	cfg  Config
	m    *kernel.Machine
	proc *kernel.Process
	lfd  int // listening descriptor

	// openFDs caches name→descriptor like Flash's open-FD cache; the
	// first lookup pays the FS open costs, later requests reuse the fd.
	openFDs map[string]openEntry

	// Apache's connection slots.
	slots    int
	slotWait sim.WaitQueue

	// Event-loop state (Flash-family kinds; see eventloop.go). Apache
	// keeps its process-per-connection path and never touches these.
	po      *uring.Poller
	ring    *uring.Ring
	conns   map[int]*connState
	tokens  map[uint64]connToken
	lclosed bool

	cgi *cgiPool

	stats ServerStats
}

// NewServer creates and starts a server on cfg.Listener.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		m:       cfg.Machine,
		openFDs: make(map[string]openEntry),
		slots:   apacheMaxClients,
	}
	s.proc = s.m.NewProcess("httpd", 2<<20)
	s.lfd = s.m.Listen(s.proc, cfg.Listener)
	if cfg.CGI {
		n := cfg.CGIWorkers
		if n <= 0 {
			n = 8
		}
		d := cfg.CGIDepth
		if d <= 0 {
			d = 4
		}
		s.cgi = newCGIPool(s, n, d)
	}
	if cfg.Kind == Apache {
		// Process per connection: the accept loop forks a handler proc for
		// every arrival — Apache's architectural identity.
		s.m.Eng.Go("httpd.accept", s.acceptLoop)
	} else {
		// Flash's actual architecture: one readiness-driven event loop
		// multiplexing every connection, response I/O batched through the
		// submission ring (eventloop.go).
		s.m.Eng.Go("httpd.loop", s.eventLoop)
	}
	return s
}

// Process returns the server's kernel process (its protection domain).
func (s *Server) Process() *kernel.Process { return s.proc }

// PrimeOpen seeds the server's open-FD cache, as a long-running server
// would have done during warmup (experiments start from steady state).
func (s *Server) PrimeOpen(path string, f *fsim.File) {
	fd := s.proc.Install(kernel.NewFileDesc(s.m, f, nil))
	s.openFDs[path] = openEntry{f: f, fd: fd}
}

// ServerStats is the server's counter snapshot. Aborted responses count
// toward Requests but not toward the byte totals; the abort count covers
// both sides of the data path — client write errors (client gone
// mid-response) and CGI worker pipe write errors, which surface through
// the mux as failed requests instead of being silently dropped. Shed is
// the subset of aborts caused by a passed CGI deadline.
type ServerStats struct {
	Requests   int64
	BodyBytes  int64
	TotalBytes int64
	Aborted    int64
	Shed       int64
}

// Stats returns the server's counters.
func (s *Server) Stats() ServerStats { return s.stats }

// ResetMeters zeroes the counters (used when an experiment discards
// warmup).
func (s *Server) ResetMeters() { s.stats = ServerStats{} }

func (s *Server) acceptLoop(p *sim.Proc) {
	for {
		cfd, err := s.m.Accept(p, s.proc, s.lfd)
		if err != nil {
			return
		}
		// The accept timestamp precedes Apache's connection-slot wait, so
		// the first request's accept phase measures the time a connection
		// spent queued for a process slot.
		acceptedAt := p.Now()
		if s.cfg.Kind == Apache {
			for s.slots == 0 {
				s.slotWait.Wait(p)
			}
			s.slots--
			s.m.VM.Reserve(mem.TagProc, mem.PagesFor(apacheConnMem))
		}
		s.m.Eng.Go("httpd.conn", func(hp *sim.Proc) {
			s.handleConn(hp, cfd, acceptedAt)
			if s.cfg.Kind == Apache {
				s.m.VM.Release(mem.TagProc, mem.PagesFor(apacheConnMem))
				s.slots++
				s.slotWait.Wake(1)
			}
		})
	}
}

// recvChunk caps one IOL_read from a connection while accumulating a
// request; deliveries are segment-sized, far below this.
const recvChunk = 64 << 10

// handleConn serves requests on connection descriptor cfd until close.
func (s *Server) handleConn(p *sim.Proc, cfd int, acceptedAt sim.Time) {
	var pending []byte
	var buf []byte // conventional receive buffer, reused across requests
	first := true
	for {
		// Open the request's span. The first span on a connection starts
		// at accept time, so its accept phase covers the slot wait and
		// handler spawn; later spans start when the server turns to the
		// next request. A nil collector makes sp nil and every span call
		// below a no-op.
		var sp *obs.Span
		if s.cfg.Obs != nil {
			start := p.Now()
			if first {
				start = acceptedAt
			}
			sp = s.cfg.Obs.Start(s.cfg.Kind.String(), start)
			sp.Enter(p.Now(), obs.PhaseParse)
			p.SetAttrib(sp)
		}
		first = false

		// Accumulate a complete request.
		var path string
		var keepalive, ok bool
		for {
			path, keepalive, ok = ParseRequest(pending)
			if ok {
				pending = nil
				break
			}
			if s.cfg.Kind.Lite() {
				// IOL_read on the socket: request bytes arrive in IO-Lite
				// buffers placed by early demultiplexing, no copy.
				a, err := s.m.IOLRead(p, s.proc, cfd, recvChunk)
				if err != nil {
					sp.Abandon()
					s.m.Close(p, s.proc, cfd)
					return
				}
				pending = append(pending, a.Materialize()...)
				a.Release()
			} else {
				if buf == nil {
					buf = make([]byte, recvChunk)
				}
				n, err := s.m.ReadPOSIX(p, s.proc, cfd, buf)
				if err != nil {
					sp.Abandon()
					s.m.Close(p, s.proc, cfd)
					return
				}
				pending = append(pending, buf[:n]...)
			}
		}

		s.m.Host.Use(p, s.requestWork())

		var served bool
		if s.cfg.CGI {
			served = s.serveCGI(p, cfd, path, sp)
		} else {
			served = s.serveStatic(p, cfd, path, sp)
		}
		s.stats.Requests++
		p.SetAttrib(nil)
		if !served {
			// The response aborted on a write error: the connection is
			// useless, drop it. The span is abandoned, not finished — an
			// aborted response has no meaningful end-to-end latency.
			sp.Abandon()
			s.stats.Aborted++
			s.m.Close(p, s.proc, cfd)
			return
		}
		sp.Finish(p.Now())

		if !keepalive {
			s.m.Close(p, s.proc, cfd)
			return
		}
	}
}

func (s *Server) requestWork() time.Duration {
	if s.cfg.Kind == Apache {
		return apacheRequestWork
	}
	return flashRequestWork
}

// openCached resolves a path through the server's open-FD cache.
func (s *Server) openCached(p *sim.Proc, path string) (openEntry, bool) {
	if e, ok := s.openFDs[path]; ok {
		s.m.Host.Use(p, s.m.Costs.CacheLookup)
		return e, true
	}
	fd, err := s.m.Open(p, s.proc, path)
	if err != nil {
		return openEntry{}, false
	}
	d, _ := s.proc.Desc(fd)
	f, _ := kernel.FileOf(d)
	e := openEntry{f: f, fd: fd}
	s.openFDs[path] = e
	return e, true
}

// cork toggles TCP_CORK on the client socket around multi-write responses
// so the header never ships as its own undersized segment. Descriptors
// without a segmenting transport ignore it.
func (s *Server) cork(p *sim.Proc, cfd int, on bool) {
	_ = s.m.SetCork(p, s.proc, cfd, on)
}

// serveStatic sends a file down connection descriptor cfd. It stops at the
// first write error (the simulated EPIPE of a departed client) and reports
// false; the byte counters only advance for fully delivered responses.
// Every multi-write path corks the socket for the duration of the
// response: the response header and the document gather into exactly
// ⌈(header+body)/MSS⌉ data segments instead of the header riding alone.
func (s *Server) serveStatic(p *sim.Proc, cfd int, path string, sp *obs.Span) bool {
	sp.Enter(p.Now(), obs.PhaseCacheLookup)
	e, ok := s.openCached(p, path)
	sp.Enter(p.Now(), obs.PhaseSend)
	if !ok {
		_, err := s.m.WritePOSIX(p, s.proc, cfd, []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
		return err == nil
	}
	f := e.f
	hdr := FormatResponseHeader(s.cfg.Kind.String(), f.Size())
	switch s.cfg.Kind {
	case FlashLite:
		// §3.10: IOL_read the document, concatenate a freshly generated
		// response header, IOL_write the aggregate to the socket — the
		// same two calls a pipe or file target would take. If the document
		// is cached, the only data-touching work left is the header. The
		// positional read means the one cached descriptor safely serves
		// every concurrent connection (no shared cursor).
		body, err := s.m.IOLReadAt(p, s.proc, e.fd, 0, f.Size())
		if err != nil {
			body = core.NewAgg()
		}
		resp := core.PackBytes(p, s.proc.Pool, hdr)
		resp.Concat(body)
		body.Release()
		if err := s.m.IOLWrite(p, s.proc, cfd, resp); err != nil {
			resp.Release() // on error the caller still owns the aggregate
			return false
		}
	case FlashLiteSplice:
		// The sendfile shape: one IOL_write for the header, one splice for
		// the whole document, corked together so the header fills the
		// first data segment instead of shipping alone. The document's
		// sealed cache buffers go from the file cache to the wire without
		// ever being mapped into the server — and their checksums stay
		// cached across requests.
		s.cork(p, cfd, true)
		resp := core.PackBytes(p, s.proc.Pool, hdr)
		if err := s.m.IOLWrite(p, s.proc, cfd, resp); err != nil {
			resp.Release()
			return false
		}
		if _, err := s.m.SpliceAt(p, s.proc, cfd, e.fd, 0, f.Size()); err != nil {
			if !errors.Is(err, kernel.ErrNotSupported) {
				return false
			}
			// The connection can't splice (a conventional client endpoint):
			// fall back to the IOL_read + IOL_write pair the splice
			// shortcuts.
			body, rerr := s.m.IOLReadAt(p, s.proc, e.fd, 0, f.Size())
			if rerr != nil {
				body = core.NewAgg()
			}
			if err := s.m.IOLWrite(p, s.proc, cfd, body); err != nil {
				body.Release()
				return false
			}
		}
		s.cork(p, cfd, false)
	case Flash:
		// mmap avoids the read-side copy; the send still copies into
		// socket buffers and checksums every byte.
		mp := s.m.Mmap(p, s.proc, f)
		s.cork(p, cfd, true)
		if _, err := s.m.WritePOSIX(p, s.proc, cfd, hdr); err != nil {
			return false
		}
		if _, err := s.m.WritePOSIX(p, s.proc, cfd, mp.Bytes(0, f.Size())); err != nil {
			return false
		}
		s.cork(p, cfd, false)
	case Apache:
		// Apache 1.3 walks the mmap'd file in 8 KB hunks, one write(2) per
		// hunk, after its buffered-output (BUFF) layer has staged the data
		// in a user buffer — one more copy than Flash's direct writev.
		mp := s.m.Mmap(p, s.proc, f)
		s.cork(p, cfd, true)
		if _, err := s.m.WritePOSIX(p, s.proc, cfd, hdr); err != nil {
			return false
		}
		const hunk = 8 << 10
		for off := int64(0); off < f.Size(); off += hunk {
			n := f.Size() - off
			if n > hunk {
				n = hunk
			}
			s.m.Host.Use(p, s.m.Costs.Copy(int(n))) // BUFF staging copy
			if _, err := s.m.WritePOSIX(p, s.proc, cfd, mp.Bytes(off, n)); err != nil {
				return false
			}
		}
		s.cork(p, cfd, false)
	}
	s.stats.BodyBytes += f.Size()
	s.stats.TotalBytes += f.Size() + int64(len(hdr))
	return true
}
