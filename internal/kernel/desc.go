package kernel

import (
	"errors"

	"iolite/internal/core"
	"iolite/internal/fsim"
	"iolite/internal/ipcsim"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// The descriptor layer implements the paper's central API claim (Fig. 2):
// IOL_read and IOL_write "operate on any UNIX file descriptor" — regular
// files, pipes, and network sockets behave identically behind one pair of
// calls, with the copy-based POSIX read/write available on the same
// descriptors for unmodified programs (§4.2). Each Process owns a table of
// integer file descriptors; the generic Machine.IOLRead / IOLWrite /
// ReadPOSIX / WritePOSIX dispatch through it.

// Descriptor-layer errors. The syscall surface returns these instead of
// panicking: a bad or closed descriptor is an application error, not a
// kernel invariant violation. End of stream is io.EOF.
var (
	// ErrBadFD reports an fd that is not open in the process's table.
	ErrBadFD = errors.New("kernel: bad file descriptor")
	// ErrClosed reports I/O on a descriptor whose endpoint has been shut
	// down (e.g. writing a pipe after CloseWrite, sending on a closing
	// socket).
	ErrClosed = errors.New("kernel: I/O on closed descriptor")
	// ErrNotSupported reports an operation the descriptor kind cannot
	// perform (e.g. Seek on a pipe, data I/O on a listener).
	ErrNotSupported = errors.New("kernel: operation not supported by descriptor")
	// ErrNotExist reports an Open of a name that does not resolve.
	ErrNotExist = errors.New("kernel: no such file")
	// ErrAgain reports that a non-blocking operation would have parked the
	// process (EAGAIN): nothing to read, no room to write, no pending
	// connection to accept. Retry when readiness says so.
	ErrAgain = errors.New("kernel: operation would block")
	// ErrTimedOut reports an operation abandoned because its deadline
	// passed (ETIMEDOUT). Recovery code branches on errors.Is: a timed-out
	// request may be replayed if idempotent, shed otherwise.
	ErrTimedOut = errors.New("kernel: operation timed out")
)

// MaxIO is a read length that exceeds any queued data: IOL_read with
// n=MaxIO takes whatever one call can yield (a whole queued aggregate
// from a pipe, one delivery from a socket) without capping it.
const MaxIO = int64(1) << 40

// DescKind names a descriptor's flavor (a capability query).
type DescKind int

// Descriptor kinds.
const (
	KindFile DescKind = iota
	KindPipe
	KindSocket
	KindListener
	// KindObject is a sealed in-kernel buffer aggregate behind an fd
	// (NewAggDesc) — a memfd-style object servers splice from.
	KindObject
	// KindDevice is a virtual device descriptor (a submission ring or a
	// readiness set) — kernel-internal endpoints with no backing file,
	// pipe, or socket.
	KindDevice
)

func (k DescKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindPipe:
		return "pipe"
	case KindSocket:
		return "socket"
	case KindListener:
		return "listener"
	case KindObject:
		return "object"
	case KindDevice:
		return "device"
	}
	return "unknown"
}

// Desc is the vnode-style descriptor interface: one implementation per
// descriptor kind (file, pipe end, socket endpoint, listener), all served
// by the same four Machine I/O calls. New descriptor kinds (CGI streams,
// proxy splices, multi-backend fan-outs) plug in by implementing Desc and
// installing with Process.Install — no new Machine methods required.
//
// Cost accounting contract: the Machine entry points (IOLRead, IOLWrite,
// ReadPOSIX, WritePOSIX, Seek, Close, Accept, Splice...) charge exactly one
// syscall at the boundary; Desc methods charge only data costs (copies,
// aggregate ops, cache work). This split is what lets the submission ring
// execute N descriptor operations behind a single charged Submit/Reap pair
// without changing any per-byte accounting.
type Desc interface {
	// Kind reports the descriptor's flavor.
	Kind() DescKind
	// RefMode reports whether the aggregate paths (ReadAgg/WriteAgg) move
	// data by reference — i.e. whether IOL_read/IOL_write on this
	// descriptor are zero-copy.
	RefMode() bool
	// Seekable reports whether the descriptor maintains a settable offset.
	Seekable() bool

	// ReadAgg is IOL_read: up to n bytes as a buffer aggregate the caller
	// owns, readable in pr's domain. Returns io.EOF at end of stream.
	ReadAgg(p *sim.Proc, pr *Process, n int64) (*core.Agg, error)
	// WriteAgg is IOL_write: the aggregate's contents, by reference.
	// Ownership of a transfers to the descriptor on success.
	WriteAgg(p *sim.Proc, pr *Process, a *core.Agg) error
	// ReadCopy is POSIX read(2): fills dst, returns the count; io.EOF at
	// end of stream.
	ReadCopy(p *sim.Proc, pr *Process, dst []byte) (int, error)
	// WriteCopy is POSIX write(2): copies src in, returns the count.
	WriteCopy(p *sim.Proc, pr *Process, src []byte) (int, error)

	// Seek sets the descriptor offset à la lseek(2) (files only;
	// ErrNotSupported otherwise) and returns the new offset. whence is
	// io.SeekStart, io.SeekCurrent, or io.SeekEnd.
	Seek(off int64, whence int) (int64, error)
	// Close releases the descriptor's underlying resource. Called once,
	// when the last table reference is closed.
	Close(p *sim.Proc) error
}

// openFD is one open-file-table entry. Dup'd descriptors share the entry
// (and thus the offset and the underlying object), exactly like POSIX
// dup(2); the entry closes its Desc when the last fd referencing it goes
// away.
type openFD struct {
	d    Desc
	refs int
}

// Install places d in the process's descriptor table and returns its fd
// (the lowest free slot). It is the extension point for custom descriptor
// kinds.
func (pr *Process) Install(d Desc) int {
	e := &openFD{d: d, refs: 1}
	for i, slot := range pr.fds {
		if slot == nil {
			pr.fds[i] = e
			return i
		}
	}
	pr.fds = append(pr.fds, e)
	return len(pr.fds) - 1
}

// Desc returns the descriptor behind fd, or ErrBadFD.
func (pr *Process) Desc(fd int) (Desc, error) {
	e, err := pr.entry(fd)
	if err != nil {
		return nil, err
	}
	return e.d, nil
}

// NumFDs reports how many descriptors are open in the process's table.
func (pr *Process) NumFDs() int {
	n := 0
	for _, e := range pr.fds {
		if e != nil {
			n++
		}
	}
	return n
}

func (pr *Process) entry(fd int) (*openFD, error) {
	if fd < 0 || fd >= len(pr.fds) || pr.fds[fd] == nil {
		return nil, ErrBadFD
	}
	return pr.fds[fd], nil
}

// Open resolves a path and installs a file descriptor for it in pr's
// table, offset 0. The descriptor reads through the unified file cache.
func (m *Machine) Open(p *sim.Proc, pr *Process, name string) (int, error) {
	m.syscall(p)
	f := m.FS.Lookup(p, name)
	if f == nil {
		return -1, ErrNotExist
	}
	return pr.Install(&fileDesc{m: m, f: f}), nil
}

// OpenWithPool is Open with a caller-specified allocation pool (§3.4):
// IOL_read on the returned descriptor places data in buffers from pool —
// whose ACL governs who may come to read it — bypassing the shared file
// cache. Applications managing multiple I/O streams with different
// access-control lists open one descriptor per stream.
func (m *Machine) OpenWithPool(p *sim.Proc, pr *Process, name string, pool *core.Pool) (int, error) {
	m.syscall(p)
	f := m.FS.Lookup(p, name)
	if f == nil {
		return -1, ErrNotExist
	}
	return pr.Install(&fileDesc{m: m, f: f, pool: pool}), nil
}

// NewFileDesc wraps an already-resolved inode as a descriptor without
// charging open costs; servers use it to seed open-FD caches from warmed
// state. A nil pool selects the unified file cache.
func NewFileDesc(m *Machine, f *fsim.File, pool *core.Pool) Desc {
	return &fileDesc{m: m, f: f, pool: pool}
}

// Pipe2 creates a pipe and installs its two ends: the read end in reader's
// table, the write end in writer's table. IO-Lite endpoints pass
// reference-mode pipes (§4.4); conventional ones copy. No cost is charged
// (descriptor setup happens at process wiring time, outside measurement).
func (m *Machine) Pipe2(reader, writer *Process, mode ipcsim.Mode) (rfd, wfd int) {
	pp := ipcsim.New(m.Eng, m.Costs, m.CPU(), m.VM, mode, reader.Domain)
	rfd = reader.Install(&pipeDesc{m: m, pp: pp})
	wfd = writer.Install(&pipeDesc{m: m, pp: pp, write: true})
	return rfd, wfd
}

// SocketPair wires a connected socket across machines at setup time and
// installs its two endpoint descriptors: the dialing side in process cpr
// (on machine cm), the accepting side in process spr (on machine sm, which
// receives the endpoint opts.ServerRefMode configures). Like Pipe2, the
// wiring itself is uncharged — process plumbing happens outside
// measurement — while every byte moved over the returned fds is charged
// normally. It is the seam distributed-worker topologies build on: a
// server process on one machine holding framed channels to worker
// processes on another.
func SocketPair(cm *Machine, cpr *Process, sm *Machine, spr *Process, link *netsim.Link, opts netsim.ConnOpts) (cfd, sfd int) {
	conn := netsim.Wire(cm.Host, sm.Host, link, opts)
	cfd = cpr.Install(&sockDesc{m: cm, ep: conn.ClientEnd()})
	sfd = spr.Install(&sockDesc{m: sm, ep: conn.ServerEnd()})
	return cfd, sfd
}

// Listen wraps lst as a listener descriptor in pr's table; Accept on the
// returned fd yields connected socket descriptors.
func (m *Machine) Listen(pr *Process, lst *netsim.Listener) int {
	return pr.Install(&listenDesc{m: m, lst: lst})
}

// Accept blocks until a connection arrives on listener fd lfd and installs
// a socket descriptor for its server-side endpoint. ErrClosed after the
// listener closes.
func (m *Machine) Accept(p *sim.Proc, pr *Process, lfd int) (int, error) {
	m.syscall(p)
	d, err := pr.Desc(lfd)
	if err != nil {
		return -1, err
	}
	ld, ok := d.(*listenDesc)
	if !ok {
		return -1, ErrNotSupported
	}
	if ld.nonblock && ld.lst.Pending() == 0 && !ld.lst.Closed() {
		return -1, ErrAgain
	}
	conn := ld.lst.Accept(p)
	if conn == nil {
		return -1, ErrClosed
	}
	return pr.Install(&sockDesc{m: m, ep: conn.ServerEnd()}), nil
}

// Connect dials from this machine over link to a listener and installs a
// socket descriptor for the client-side endpoint — the seam for proxy and
// multi-tier scenarios where a server process is itself a client.
// ErrClosed when the listener has shut down (the dial's SYN meets no
// acceptor).
func (m *Machine) Connect(p *sim.Proc, pr *Process, link *netsim.Link, lst *netsim.Listener, opts netsim.ConnOpts) (int, error) {
	conn := netsim.Dial(p, m.Host, link, lst, opts)
	if conn == nil {
		return -1, ErrClosed
	}
	return pr.Install(&sockDesc{m: m, ep: conn.ClientEnd()}), nil
}

// Dup duplicates fd onto a new descriptor sharing the same open-file entry
// (offset included). The underlying object closes only when the last
// duplicate is closed.
func (m *Machine) Dup(p *sim.Proc, pr *Process, fd int) (int, error) {
	m.syscall(p)
	e, err := pr.entry(fd)
	if err != nil {
		return -1, err
	}
	e.refs++
	for i, slot := range pr.fds {
		if slot == nil {
			pr.fds[i] = e
			return i, nil
		}
	}
	pr.fds = append(pr.fds, e)
	return len(pr.fds) - 1, nil
}

// Close removes fd from the table; when it is the entry's last reference,
// the underlying object (pipe end, socket, file) is closed too.
func (m *Machine) Close(p *sim.Proc, pr *Process, fd int) error {
	m.syscall(p)
	e, err := pr.entry(fd)
	if err != nil {
		return err
	}
	pr.fds[fd] = nil
	e.refs--
	if e.refs > 0 {
		return nil
	}
	return e.d.Close(p)
}

// Seek sets a file descriptor's offset à la lseek(2). ErrNotSupported on
// stream descriptors (pipes, sockets). Like every Machine entry point it
// charges its syscall on success and error alike.
func (m *Machine) Seek(p *sim.Proc, pr *Process, fd int, off int64, whence int) (int64, error) {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return 0, err
	}
	return d.Seek(off, whence)
}

// IOLRead is the unified IOL_read (Fig. 2): up to n bytes from descriptor
// fd as a buffer aggregate the caller owns, zero-copy wherever the
// descriptor supports it — unified-cache references for files, aggregate
// references for pipes, early-demultiplexed packet buffers for sockets.
// io.EOF at end of stream.
func (m *Machine) IOLRead(p *sim.Proc, pr *Process, fd int, n int64) (*core.Agg, error) {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return nil, err
	}
	return d.ReadAgg(p, pr, n)
}

// PReader is the optional capability of descriptors that support
// positional reads (pread-style: no cursor involved, safe to share one
// descriptor across concurrent readers). File descriptors implement it.
type PReader interface {
	ReadAggAt(p *sim.Proc, pr *Process, off, n int64) (*core.Agg, error)
}

// IOLReadAt is IOL_read at an explicit offset (pread(2)): it does not
// read or move the descriptor's cursor, so one open descriptor can serve
// concurrent readers. ErrNotSupported on stream descriptors. The syscall
// that was made is charged on every path, success or error.
func (m *Machine) IOLReadAt(p *sim.Proc, pr *Process, fd int, off, n int64) (*core.Agg, error) {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return nil, err
	}
	pd, ok := d.(PReader)
	if !ok {
		return nil, ErrNotSupported
	}
	return pd.ReadAggAt(p, pr, off, n)
}

// IOLWrite is the unified IOL_write (Fig. 2): the aggregate's contents to
// descriptor fd, by reference. Ownership of a transfers to the kernel on
// success; on error the caller still owns it.
func (m *Machine) IOLWrite(p *sim.Proc, pr *Process, fd int, a *core.Agg) error {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return err
	}
	return d.WriteAgg(p, pr, a)
}

// ReadPOSIX is the backward-compatible read(2) on any descriptor: data is
// copied into the caller's buffer with the copy charged (§4.2). io.EOF at
// end of stream.
func (m *Machine) ReadPOSIX(p *sim.Proc, pr *Process, fd int, dst []byte) (int, error) {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return 0, err
	}
	return d.ReadCopy(p, pr, dst)
}

// WritePOSIX is the backward-compatible write(2) on any descriptor: the
// caller's bytes are copied in (charged) and then follow the zero-copy
// path.
func (m *Machine) WritePOSIX(p *sim.Proc, pr *Process, fd int, src []byte) (int, error) {
	m.syscall(p)
	d, err := pr.Desc(fd)
	if err != nil {
		return 0, err
	}
	return d.WriteCopy(p, pr, src)
}

// splitPending caps a freshly received aggregate at n bytes, storing any
// excess for the descriptor's next read. Shared by the stream descriptors.
func splitPending(a *core.Agg, n int64, pending **core.Agg) *core.Agg {
	if int64(a.Len()) > n {
		*pending = a.Split(int(n))
	}
	return a
}

// copyOut is the stream descriptors' POSIX read tail: copy the head of a
// into dst (copy charged, §4.2), park any remainder in *pending, release
// a fully consumed aggregate.
func (m *Machine) copyOut(p *sim.Proc, a *core.Agg, dst []byte, pending **core.Agg) int {
	n := a.ReadAt(dst, 0)
	m.Host.Use(p, m.Costs.Copy(n))
	if n < a.Len() {
		a.DropFront(n)
		*pending = a
	} else {
		a.Release()
	}
	return n
}
