package core

import (
	"bytes"
	"testing"

	"iolite/internal/sim"
)

// Edge cases of the aggregate ADT that the descriptor dispatch path
// exercises: truncation exactly at a slice boundary, front-drops spanning
// multiple slices (splitPending / partial POSIX reads), and operations on
// empty aggregates.

// multiSlice builds an aggregate of count slices, sliceLen bytes each,
// with distinguishable content.
func multiSlice(h *harness, p *sim.Proc, count, sliceLen int) (*Agg, []byte) {
	a := NewAgg()
	var want []byte
	for i := 0; i < count; i++ {
		d := pattern(sliceLen, byte(i*31+1))
		b := h.pool.Alloc(p, sliceLen)
		fill(b, d)
		a.Append(Slice{Buf: b, Off: 0, Len: sliceLen})
		b.Release()
		want = append(want, d...)
	}
	return a, want
}

func TestTruncExactlyAtSliceBoundary(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a, want := multiSlice(h, p, 3, 4096)
		third := a.Slices()[2].Buf

		// Truncate exactly at the second slice's end: the third slice must
		// be released whole, the second kept at full length.
		a.Trunc(2 * 4096)
		if a.Len() != 2*4096 || a.NumSlices() != 2 {
			t.Fatalf("after Trunc: len=%d slices=%d, want 8192/2", a.Len(), a.NumSlices())
		}
		if !bytes.Equal(a.Materialize(), want[:2*4096]) {
			t.Fatal("Trunc at boundary corrupted content")
		}
		if third.Refs() != 0 {
			t.Fatalf("boundary Trunc leaked the dropped slice's reference (refs=%d)", third.Refs())
		}

		// Truncate to zero: every reference drops, the aggregate stays
		// usable (it is empty, not dead).
		a.Trunc(0)
		if a.Len() != 0 || a.NumSlices() != 0 {
			t.Fatalf("after Trunc(0): len=%d slices=%d", a.Len(), a.NumSlices())
		}
		a.Release()
	})
}

func TestDropFrontSpanningMultipleSlices(t *testing.T) {
	h := newHarness()
	h.run(t, func(p *sim.Proc) {
		a, want := multiSlice(h, p, 4, 1024)
		first := a.Slices()[0].Buf
		second := a.Slices()[1].Buf

		// Drop 2.5 slices worth: the first two release entirely, the third
		// survives with an adjusted offset.
		a.DropFront(2*1024 + 512)
		if a.Len() != 2*1024-512 || a.NumSlices() != 2 {
			t.Fatalf("after DropFront: len=%d slices=%d", a.Len(), a.NumSlices())
		}
		if !bytes.Equal(a.Materialize(), want[2*1024+512:]) {
			t.Fatal("DropFront spanning slices corrupted content")
		}
		if first.Refs() != 0 || second.Refs() != 0 {
			t.Fatal("DropFront leaked references of fully dropped slices")
		}
		if a.Slices()[0].Off != 512 {
			t.Fatalf("surviving slice offset = %d, want 512", a.Slices()[0].Off)
		}

		// Drop the rest in one call ending exactly at the aggregate's end.
		a.DropFront(a.Len())
		if a.Len() != 0 || a.NumSlices() != 0 {
			t.Fatal("DropFront to empty left residue")
		}
		a.Release()
	})
}

func TestRangeOfEmptyAggregate(t *testing.T) {
	a := NewAgg()
	r := a.Range(0, 0)
	if r.Len() != 0 || r.NumSlices() != 0 {
		t.Fatalf("Range(0,0) of empty: len=%d slices=%d", r.Len(), r.NumSlices())
	}
	if got := r.Materialize(); len(got) != 0 {
		t.Fatalf("Materialize of empty range returned %d bytes", len(got))
	}
	r.Release()

	// Out-of-bounds ranges still panic, even on the empty aggregate.
	defer func() {
		if recover() == nil {
			t.Fatal("Range(0,1) of empty aggregate did not panic")
		}
		a.Release()
	}()
	a.Range(0, 1)
}
