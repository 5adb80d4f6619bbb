package xmap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Binary X-location wire format ("XMAPB", version 1). The encoder lives
// here, next to the map it serializes, so both the public facade
// (xhybrid.XLocations.WriteBinary) and the in-repo circuit flow
// (internal/flow, which digests extracted maps) share one canonical byte
// stream; the streaming decoder stays in the root package where the
// XLocations type it builds is defined. See binio.go at the repo root for
// the full format grammar.
const (
	// BinMagic is the 5-byte stream prefix.
	BinMagic = "XMAPB"
	// BinVersion is the current format version byte.
	BinVersion = 1
)

// WriteBinary serializes the map in the compact binary wire format for a
// design with the given scan geometry (chains × chainLen must equal
// m.Cells()). The encoding is canonical: equal maps produce byte-identical
// output regardless of build order — XCells is always ascending and gaps
// are derived from it — which is what lets the serving layer use the bytes
// as a cache key and the flow tests assert worker-count independence.
//
// The varints are appended into one fixed buffer (binBuf bytes) that is
// handed to w whenever it might not hold the next one, so w sees one Write
// per buffer rather than one per varint. A cell's pattern count is its
// bitset's popcount and its pattern gaps come from walking the bitset's
// words, so no index slice is built. An error from w is returned as is.
func WriteBinary(w io.Writer, m *XMap, chains, chainLen int) error {
	if chains*chainLen != m.Cells() {
		return fmt.Errorf("xmap: geometry %dx%d does not cover %d cells", chains, chainLen, m.Cells())
	}
	cells := m.XCells()
	buf := make([]byte, 0, binBuf)
	buf = append(buf, BinMagic...)
	buf = append(buf, BinVersion)
	for _, v := range [...]int{chains, chainLen, m.Patterns(), len(cells)} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	// Gaps start from 0, so the first cell and each cell's first pattern
	// come out absolute.
	prevCell := 0
	for _, c := range cells {
		if len(buf) > binBuf-2*binary.MaxVarintLen64 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = binary.AppendUvarint(buf, uint64(c.Cell-prevCell))
		buf = binary.AppendUvarint(buf, uint64(c.Patterns.PopCount()))
		prevCell = c.Cell
		prevP, base := 0, 0
		for _, word := range c.Patterns.Words() {
			for word != 0 {
				p := base + bits.TrailingZeros64(word)
				word &= word - 1
				if len(buf) > binBuf-binary.MaxVarintLen64 {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
				// Most gaps fit one byte; appending it directly skips
				// AppendUvarint's loop.
				if gap := p - prevP; gap < 0x80 {
					buf = append(buf, byte(gap))
				} else {
					buf = binary.AppendUvarint(buf, uint64(gap))
				}
				prevP = p
			}
			base += 64
		}
	}
	_, err := w.Write(buf)
	return err
}

// binBuf is the encoder's buffer size. Any size that holds the header
// gives the same bytes; this one matches bufio's default.
const binBuf = 4096
