package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"iolite/internal/cksum"
	"iolite/internal/core"
	"iolite/internal/fcgi"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

// Layer microbenchmarks. Each one drives a layer through its public
// functions only, in a loop of n operations, and is timed by measure.

// microResult is one microbenchmark's host cost per operation.
type microResult struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// micro is one microbenchmark: run performs n operations. ns names the
// per-layer metric its cost per operation feeds, and allocs, when set,
// the one its allocations per operation feed.
type micro struct {
	ns, allocs string
	run        func(n int) error
}

// micros lists the microbenchmarks in the order they run.
var micros = []micro{
	{"sim.switch_ns", "sim.switch_allocs", benchSwitch},
	{"sim.event_ns", "sim.event_allocs", benchEvent},
	{"sim.wheel_timer_ns", "", benchWheel},
	{"core.pool_alloc_ns", "", benchPoolAlloc},
	{"core.pack_ns", "", benchPack},
	{"cksum.sum_ns_per_kb", "", benchCksum},
	{"fcgi.decode_record_ns", "", benchDecode},
}

// measure calibrates n so one round takes about 20 ms, then times seven
// rounds and returns the median round's cost per operation. Allocations
// are counted over all rounds.
func measure(run func(n int) error) (microResult, error) {
	const round = 20 * time.Millisecond
	n := 1
	for {
		t0 := time.Now()
		if err := run(n); err != nil {
			return microResult{}, err
		}
		if d := time.Since(t0); d >= round/4 {
			n = int(float64(n) * float64(round) / float64(d))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	per := make([]float64, 7)
	for i := range per {
		t0 := time.Now()
		if err := run(n); err != nil {
			return microResult{}, err
		}
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return microResult{
		NsPerOp:     median(per),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n*len(per)),
	}, nil
}

// benchSwitch: one proc parks in Sleep and the engine resumes it, n
// times.
func benchSwitch(n int) error {
	e := sim.New()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	return nil
}

// eventBacklog is how many events or timers the queue benchmarks keep
// pending, so each push and pop works on a heap or wheel of realistic
// depth rather than an empty one.
const eventBacklog = 256

// benchEvent: n Engine.After events fire, each rescheduling itself, over
// eventBacklog independent chains.
func benchEvent(n int) error {
	e := sim.New()
	left := n
	for c := 0; c < eventBacklog; c++ {
		d := sim.Duration(c+1) * sim.Duration(time.Microsecond)
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				e.After(d, fire)
			}
		}
		e.After(d, fire)
	}
	e.Run()
	return nil
}

// benchWheel: n timers are scheduled on the engine's shared wheel and
// fire, over eventBacklog self-rescheduling chains.
func benchWheel(n int) error {
	e := sim.New()
	w := e.Wheel()
	left := n
	for c := 0; c < eventBacklog; c++ {
		d := sim.Duration(c+1) * sim.Duration(10*time.Microsecond)
		var fire func()
		fire = func() {
			if left > 0 {
				left--
				w.Schedule(d, fire)
			}
		}
		w.Schedule(d, fire)
	}
	e.Run()
	return nil
}

// benchPool returns an empty buffer pool on a fresh VM.
func benchPool() *core.Pool {
	vm := mem.NewVM(sim.New(), sim.DefaultCosts(), 512<<20)
	return core.NewPool(vm, vm.NewDomain("bench", true), "bench")
}

// benchPoolAlloc: n chunk-sized buffers are allocated, sealed and
// released back to the pool.
func benchPoolAlloc(n int) error {
	pl := benchPool()
	for i := 0; i < n; i++ {
		b := pl.Alloc(nil, mem.ChunkSize)
		b.Seal()
		b.Release()
	}
	return nil
}

// docBytes is the document size the fcgi-ref and chaos workloads serve;
// the pack microbenchmark packs documents of this size.
const docBytes = 16 << 10

// benchPack: n documents are packed into an aggregate and released.
func benchPack(n int) error {
	pl := benchPool()
	doc := make([]byte, docBytes)
	for i := 0; i < n; i++ {
		core.PackBytes(nil, pl, doc).Release()
	}
	return nil
}

// cksumBlock is the checksum microbenchmark's input size (one 64 KB
// socket buffer); n counts kilobytes summed.
const cksumBlock = 64 << 10

var cksumSink cksum.PartialSum

func benchCksum(n int) error {
	data := make([]byte, cksumBlock)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for kb := 0; kb < n; kb += cksumBlock >> 10 {
		cksumSink = cksum.Sum(data)
	}
	return nil
}

// benchDecode: n STDOUT records with a 1 KB payload are decoded from a
// wire buffer.
func benchDecode(n int) error {
	const payload = 1 << 10
	wire := make([]byte, fcgi.HeaderLen+payload)
	wire[0] = byte(fcgi.RecStdout)
	wire[1] = fcgi.FlagEndStream
	binary.BigEndian.PutUint16(wire[2:], 1)
	binary.BigEndian.PutUint32(wire[4:], payload)
	for i := 0; i < n; i++ {
		rec, used, err := fcgi.DecodeRecord(wire)
		if err != nil {
			return fmt.Errorf("decode record: %w", err)
		}
		if used != len(wire) || len(rec.Bytes) != payload {
			return fmt.Errorf("decode record: consumed %d of %d bytes, payload %d of %d",
				used, len(wire), len(rec.Bytes), payload)
		}
	}
	return nil
}
