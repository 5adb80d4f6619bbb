package xhybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"xhybrid/internal/gf2"
	"xhybrid/internal/xmap"
)

// Binary X-location wire format ("XMAPB", version 1).
//
// The JSON form spells every pattern index out in decimal and re-parses it
// through reflection; for the synthetic industrial workloads that tax is
// larger than the partitioning compute it feeds. The binary form is a
// varint stream a streaming decoder can turn into per-cell bitsets without
// any intermediate allocation:
//
//	magic   5 bytes  "XMAPB"
//	version 1 byte   0x01
//	header  uvarint × 4: chains, chainLen, patterns, numXCells
//	record  × numXCells, ascending by cell:
//	        uvarint cell     first record: absolute cell index
//	                         later records: gap from the previous cell
//	        uvarint count    number of X patterns of the cell (≥ 1)
//	        uvarint pattern  × count, ascending; first absolute, rest gaps
//
// Gaps between ascending records are always ≥ 1, so an encoded gap of 0
// can only mean a duplicate (or out-of-order) record — the decoder rejects
// it, mirroring ReadXLocations' refusal to silently merge duplicates. No
// trailing bytes are permitted after the last record.
//
// Both directions work on byte slices rather than a byte at a time: the
// decoder reads varints out of a window it refills from its reader, and the
// encoder appends them into one buffer it flushes to its writer. The
// format and the canonical bytes are the same either way.
const (
	binMagic   = xmap.BinMagic
	binVersion = xmap.BinVersion
)

// binMaxValue bounds every decoded uvarint so int conversions are safe and
// a corrupt stream cannot request absurd allocations before the dimension
// checks run.
const binMaxValue = math.MaxInt32

// WriteBinary serializes the X locations in the compact binary wire format.
// The encoding is canonical: equal maps produce byte-identical output
// regardless of build order, which is what lets the serving layer use it as
// a cache key. The encoder itself lives in internal/xmap (xmap.WriteBinary,
// which appends the varints into one fixed buffer and flushes it to w) so
// the circuit flow can digest extracted maps without importing this
// package.
func (x *XLocations) WriteBinary(w io.Writer) error {
	return xmap.WriteBinary(w, x.m, x.geom.Chains, x.geom.ChainLen)
}

// ReadXLocationsBinary parses the binary wire format, streaming: it decodes
// uvarints from a fixed window (binWindow bytes) that it refills from r
// whenever fewer than binary.MaxVarintLen64 bytes remain, so a one-byte
// varint — most of them — costs a compare and an index, and only the
// multi-byte ones go through binary.Uvarint. Each record's gap-coded
// pattern list is set straight into the words of that cell's fresh bitset,
// which is installed in one step, so decode cost is proportional to the X
// count with no per-byte reader call, no per-pattern map probe and no
// intermediate index slice. Memory grows with the records actually read,
// never with the cell count the header declares. Truncation (matching
// io.ErrUnexpectedEOF), varint overflow, out-of-range dimensions,
// duplicate (or out-of-order) records and trailing bytes are all rejected,
// and an error from r comes back wrapped. The decoder reads r to EOF even
// after the last record, so a gzip reader underneath gets to verify its
// checksum trailer.
func ReadXLocationsBinary(r io.Reader) (*XLocations, error) {
	d := &binReader{r: r}
	d.fill()
	if d.end < len(binMagic)+1 {
		return nil, fmt.Errorf("xhybrid: binary header: %w", binEOF(d.err))
	}
	if magic := d.buf[:len(binMagic)]; string(magic) != binMagic {
		return nil, fmt.Errorf("xhybrid: not a binary X-location stream (bad magic %q)", magic)
	}
	if v := d.buf[len(binMagic)]; v != binVersion {
		return nil, fmt.Errorf("xhybrid: unsupported binary version %d (want %d)", v, binVersion)
	}
	d.pos = len(binMagic) + 1
	chains, err := d.field("chains")
	if err != nil {
		return nil, err
	}
	chainLen, err := d.field("chainLen")
	if err != nil {
		return nil, err
	}
	patterns, err := d.field("patterns")
	if err != nil {
		return nil, err
	}
	numCells, err := d.field("cell count")
	if err != nil {
		return nil, err
	}
	x, err := NewXLocations(chains, chainLen, patterns)
	if err != nil {
		return nil, err
	}
	if numCells > x.Cells() {
		return nil, fmt.Errorf("xhybrid: binary declares %d X cells for %d-cell design", numCells, x.Cells())
	}
	cell := 0
	for i := 0; i < numCells; i++ {
		gap, err := d.field("cell gap")
		if err != nil {
			return nil, err
		}
		if i > 0 && gap == 0 {
			return nil, fmt.Errorf("xhybrid: duplicate record for cell %d", cell)
		}
		cell += gap
		if cell >= x.Cells() {
			return nil, fmt.Errorf("xhybrid: cell %d out of range [0,%d)", cell, x.Cells())
		}
		count, err := d.field("pattern count")
		if err != nil {
			return nil, err
		}
		if count < 1 || count > patterns {
			return nil, fmt.Errorf("xhybrid: cell %d: pattern count %d out of range [1,%d]", cell, count, patterns)
		}
		// The bitset is fresh and unshared until SetCellPatterns takes it,
		// so its words are written directly; p < patterns keeps the bits
		// past its length zero. The window position lives in pos while the
		// loop runs, so it stays in a register.
		v := gf2.NewVec(patterns)
		words := v.Words()
		p, pos := 0, d.pos
		for j := 0; j < count; j++ {
			// The one-byte fast path, inlined by hand: uvarint is too large
			// for the compiler to inline.
			var gap uint64
			if d.end-pos >= binary.MaxVarintLen64 && d.buf[pos] < 0x80 {
				gap = uint64(d.buf[pos])
				pos++
			} else {
				d.pos = pos
				if gap, err = d.uvarint(); err != nil || gap > binMaxValue {
					return nil, binField("pattern gap", gap, err)
				}
				pos = d.pos
			}
			if j > 0 && gap == 0 {
				return nil, fmt.Errorf("xhybrid: cell %d: duplicate pattern %d", cell, p)
			}
			p += int(gap)
			if p >= patterns {
				return nil, fmt.Errorf("xhybrid: cell %d: pattern %d out of range [0,%d)", cell, p, patterns)
			}
			words[uint(p)/64] |= 1 << (uint(p) % 64)
		}
		d.pos = pos
		x.m.SetCellPatterns(cell, v)
	}
	if d.pos == d.end {
		d.fill()
	}
	if d.pos < d.end {
		return nil, errors.New("xhybrid: trailing data after binary X-location stream")
	}
	if d.err != io.EOF {
		return nil, d.err
	}
	return x, nil
}

// binWindow is the size of the decoder's read window. Any size well above
// binary.MaxVarintLen64 decodes the same stream; this one matches bufio's
// default, so a window refill is one Read call per 4 KiB of input.
const binWindow = 4096

// maxEmptyReads bounds the consecutive (0, nil) reads fill tolerates before
// it gives up with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// errVarintOverflow is the error binary.ReadUvarint reports for a varint
// wider than 64 bits; the decoder keeps its wording.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// binReader is the binary decoder's input: a window over r holding the
// unread bytes buf[pos:end], and the first error r returned (io.EOF at a
// clean end), which is reported only once the window runs dry.
type binReader struct {
	r        io.Reader
	err      error
	pos, end int
	buf      [binWindow]byte
}

// fill moves the unread bytes to the front of the window and reads until
// it holds at least binary.MaxVarintLen64 bytes — a whole varint, however
// the reader splits its input — or r has returned an error. It never
// reads past an error.
func (d *binReader) fill() {
	d.end = copy(d.buf[:], d.buf[d.pos:d.end])
	d.pos = 0
	for empty := 0; d.end < binary.MaxVarintLen64 && d.err == nil; {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		switch {
		case err != nil:
			d.err = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				d.err = io.ErrNoProgress
			}
		}
	}
}

// uvarint decodes the next uvarint, refilling the window first when fewer
// than binary.MaxVarintLen64 bytes remain. Its errors match
// binary.ReadUvarint's: ten continuation bytes (for which binary.Uvarint
// answers "need more" when the window holds exactly ten) or a tenth byte
// above 1 overflow, and a window that runs dry mid-varint reports the
// reader's error, io.EOF included (binEOF makes it io.ErrUnexpectedEOF).
func (d *binReader) uvarint() (uint64, error) {
	if d.end-d.pos < binary.MaxVarintLen64 {
		d.fill()
	}
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	switch {
	case n > 0:
		d.pos += n
		return v, nil
	case n < 0 || d.end-d.pos >= binary.MaxVarintLen64:
		return 0, errVarintOverflow
	default:
		return 0, d.err
	}
}

// field decodes one uvarint field bounded by binMaxValue, naming it in any
// error.
func (d *binReader) field(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil || v > binMaxValue {
		return 0, binField(what, v, err)
	}
	return int(v), nil
}

// binField builds the error for a field that failed to decode (err) or
// decoded to v > binMaxValue. Only the failure path formats anything.
func binField(what string, v uint64, err error) error {
	if err != nil {
		return fmt.Errorf("xhybrid: binary %s: %w", what, binEOF(err))
	}
	return fmt.Errorf("xhybrid: binary %s %d exceeds limit %d", what, v, binMaxValue)
}

// binEOF turns a mid-stream io.EOF into io.ErrUnexpectedEOF: once the magic
// has been committed to, running out of bytes is truncation, not a clean
// end of input.
func binEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
