package httpd

import (
	"bytes"
	"testing"

	"iolite/internal/netsim"
)

// TestAcceptanceSplicePacketEconomy is the PR's acceptance pin: a
// splice-served single-doc response uses exactly ⌈(header+body)/MSS⌉ data
// segments — the response header no longer ships as its own undersized
// packet; it fills the front of the first document segment. Alongside the
// packet pin, the warm request's only charged copy is packing the freshly
// generated header: the document's bytes move by reference end to end
// (the existing zero-copy splice pins, re-asserted at the packet level).
func TestAcceptanceSplicePacketEconomy(t *testing.T) {
	const size = 37123 // unaligned, and ≫ MSS
	for _, kind := range []Kind{FlashLiteSplice, FlashLite} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBed(kind, false)
			f := b.m.FS.Create("/doc.html", size)
			want := b.m.FS.Expected(f, 0, f.Size())
			hdrLen := len(FormatResponseHeader(kind.String(), size))

			// Cold fetch: open-FD and file-cache warmup, outside the pins.
			b.fetchOnce(t, "/doc.html")
			b.m.Host.ResetMeters()
			b.m.Costs.ResetMeters()

			got := b.fetchOnce(t, "/doc.html")
			if !bytes.Equal(got, want) {
				t.Fatalf("served wrong bytes (%d vs %d)", len(got), len(want))
			}

			pktsOut, bytesOut := b.m.Host.Stats().PktsOut, b.m.Host.Stats().BytesOut
			wantPkts := int64((hdrLen + size + netsim.MSS - 1) / netsim.MSS)
			if pktsOut != wantPkts {
				t.Fatalf("%s response used %d data segments, want exactly %d = ⌈(header+body)/MSS⌉",
					kind, pktsOut, wantPkts)
			}
			if wantBytes := int64(hdrLen + size); bytesOut != wantBytes {
				t.Fatalf("response bytes on the wire = %d, want %d", bytesOut, wantBytes)
			}
			// The header pack is the one charged copy of a warm IO-Lite
			// response; the document crosses by reference.
			if copied := b.m.Costs.Stats().CopiedBytes; copied != int64(hdrLen) {
				t.Fatalf("warm %s request charged %d copied bytes, want %d (header pack only)",
					kind, copied, hdrLen)
			}
		})
	}
}
