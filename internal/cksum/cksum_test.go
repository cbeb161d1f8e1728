package cksum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iolite/internal/core"
	"iolite/internal/mem"
	"iolite/internal/sim"
)

func TestSumKnownVectors(t *testing.T) {
	// RFC 1071 §3 worked example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to
	// ddf2 (before complement) with end-around carry.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(data); got != 0xddf2 {
		t.Fatalf("Sum = %#x, want 0xddf2", got)
	}
	if got := finish(Sum(data)); got != ^uint16(0xddf2) {
		t.Fatalf("finish = %#x", got)
	}
	if got := Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %#x", got)
	}
	// Odd-length tail pads with a zero byte.
	if got := Sum([]byte{0xab}); got != 0xab00 {
		t.Fatalf("Sum odd = %#x, want 0xab00", got)
	}
}

// TestQuickCombineMatchesDirect: splitting a message anywhere (including odd
// offsets) and combining partial sums must equal the direct sum.
func TestQuickCombineMatchesDirect(t *testing.T) {
	f := func(seed int64, size uint16, cutFrac uint8) bool {
		n := int(size)%3000 + 2
		data := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(data)
		cut := int(cutFrac) * n / 256
		combined := combine(Sum(data[:cut]), Sum(data[cut:]), cut)
		return combined == Sum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickManyWayCombine: combining arbitrarily fragmented pieces in order
// matches the direct sum.
func TestQuickManyWayCombine(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		n := int(size)%4000 + 1
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(data)
		var acc PartialSum
		off := 0
		for off < n {
			l := 1 + rng.Intn(97)
			if off+l > n {
				l = n - off
			}
			acc = combine(acc, Sum(data[off:off+l]), off)
			off += l
		}
		return acc == Sum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

type env struct {
	eng  *sim.Engine
	pool *core.Pool
	c    *sim.CostModel
}

func newEnv() *env {
	e := sim.New()
	c := sim.DefaultCosts()
	vm := mem.NewVM(e, c, 64<<20)
	k := vm.NewDomain("kernel", true)
	return &env{eng: e, pool: core.NewPool(vm, k, "net"), c: c}
}

func TestAggregateChecksumCorrectAndCached(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		data := make([]byte, 10001) // odd length, multi-slice
		rand.New(rand.NewSource(7)).Read(data)
		a := core.PackBytes(p, ev.pool, data[:4096])
		b := core.PackBytes(p, ev.pool, data[4096:])
		a.Concat(b)
		b.Release()

		want := finish(Sum(data))
		t0 := p.Now()
		if got := cache.Aggregate(p, ev.c, a); got != want {
			t.Errorf("cached cksum = %#x, want %#x", got, want)
		}
		coldCost := p.Now().Sub(t0)
		if coldCost < ev.c.PriceCksum(10000) {
			t.Errorf("cold checksum cost %v, want ≥ %v", coldCost, ev.c.PriceCksum(10000))
		}

		// Second call: all slices cached — each charges only the key probe
		// (CksumLookup), never a pass over the bytes.
		t1 := p.Now()
		if got := cache.Aggregate(p, ev.c, a); got != want {
			t.Errorf("second cksum = %#x, want %#x", got, want)
		}
		hotCost := p.Now().Sub(t1)
		wantHot := sim.Duration(a.NumSlices()) * ev.c.CksumLookup
		if hotCost != wantHot {
			t.Errorf("cached checksum charged %v, want %v (lookups only)", hotCost, wantHot)
		}
		if hotCost >= ev.c.PriceCksum(a.Len()) {
			t.Errorf("hit cost %v not below byte cost %v", hotCost, ev.c.PriceCksum(a.Len()))
		}
		hits, misses := cache.Stats().Hits, cache.Stats().Misses
		if hits == 0 || misses == 0 {
			t.Errorf("stats hits=%d misses=%d", hits, misses)
		}
		a.Release()
	})
	ev.eng.Run()
}

func TestGenerationChangeInvalidates(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		b := ev.pool.Alloc(p, 4096)
		b.Write(0, []byte{1, 2, 3, 4})
		b.Seal()
		a := core.FromSlice(core.Slice{Buf: b, Off: 0, Len: 4})
		first := cache.Aggregate(p, ev.c, a)
		a.Release()
		b.Release()

		// Reallocate: same buffer object, new generation, new contents.
		b2 := ev.pool.Alloc(p, 4096)
		if b2 != b {
			t.Fatal("expected recycled buffer")
		}
		b2.Write(0, []byte{9, 9, 9, 9})
		b2.Seal()
		a2 := core.FromSlice(core.Slice{Buf: b2, Off: 0, Len: 4})
		second := cache.Aggregate(p, ev.c, a2)
		if first == second {
			t.Error("stale checksum served after buffer reallocation")
		}
		if want := finish(Sum([]byte{9, 9, 9, 9})); second != want {
			t.Errorf("got %#x, want %#x", second, want)
		}
		a2.Release()
		b2.Release()
	})
	ev.eng.Run()
}

func TestAggregateNoCacheAlwaysCharges(t *testing.T) {
	ev := newEnv()
	ev.eng.Go("t", func(p *sim.Proc) {
		data := make([]byte, 5000)
		rand.New(rand.NewSource(9)).Read(data)
		a := core.PackBytes(p, ev.pool, data)
		want := finish(Sum(data))
		for i := 0; i < 2; i++ {
			t0 := p.Now()
			if got := AggregateNoCache(p, ev.c, a); got != want {
				t.Errorf("cksum = %#x, want %#x", got, want)
			}
			if p.Now().Sub(t0) != ev.c.PriceCksum(5000) {
				t.Errorf("pass %d charged %v, want %v", i, p.Now().Sub(t0), ev.c.PriceCksum(5000))
			}
		}
		a.Release()
	})
	ev.eng.Run()
}

// TestQuickAggregateMatchesFlat: the cached aggregate checksum over any
// fragmentation equals the flat checksum of the contents.
func TestQuickAggregateMatchesFlat(t *testing.T) {
	ev := newEnv()
	cache := NewCache(0)
	ev.eng.Go("t", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(11))
		f := func(seed int64, size uint16) bool {
			n := int(size)%3000 + 1
			data := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(data)
			a := core.NewAgg()
			for off := 0; off < n; {
				l := 1 + rng.Intn(333)
				if off+l > n {
					l = n - off
				}
				s := ev.pool.Pack(p, data[off:off+l])
				a.Append(s)
				s.Buf.Release()
				off += l
			}
			ok := cache.Aggregate(p, ev.c, a) == finish(Sum(data)) &&
				AggregateNoCache(p, ev.c, a) == finish(Sum(data))
			a.Release()
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
	})
	ev.eng.Run()
}

func TestCacheBoundedEviction(t *testing.T) {
	ev := newEnv()
	cache := NewCache(8)
	ev.eng.Go("t", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			a := core.PackBytes(p, ev.pool, []byte{byte(i), byte(i + 1), byte(i + 2)})
			cache.Aggregate(p, ev.c, a)
			a.Release()
		}
		if len(cache.entries) > 8 {
			t.Errorf("cache grew to %d entries, cap 8", len(cache.entries))
		}
	})
	ev.eng.Run()
}
