package xhybrid

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// binStream assembles a binary X-location stream by hand for the error
// tests: the standard header followed by arbitrary uvarint fields.
func binStream(fields ...uint64) []byte {
	out := append([]byte(binMagic), binVersion)
	for _, f := range fields {
		out = binary.AppendUvarint(out, f)
	}
	return out
}

func randomXLocations(t *testing.T, seed int64, chains, chainLen, patterns int, density float64) *XLocations {
	t.Helper()
	x, err := NewXLocations(chains, chainLen, patterns)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for c := 0; c < chains; c++ {
		for pos := 0; pos < chainLen; pos++ {
			for p := 0; p < patterns; p++ {
				if r.Float64() < density {
					if err := x.AddX(p, c, pos); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return x
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, x := range map[string]*XLocations{
		"paper":  PaperExample(),
		"random": randomXLocations(t, 11, 7, 23, 190, 0.04),
		"dense":  randomXLocations(t, 5, 2, 3, 70, 0.6),
		"empty": func() *XLocations {
			x, err := NewXLocations(3, 4, 9)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := x.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			y, err := ReadXLocationsBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !y.m.Equal(x.m) {
				t.Fatal("binary round trip changed the map")
			}
			if y.geom != x.geom {
				t.Fatal("binary round trip changed the geometry")
			}
		})
	}
}

// The binary encoding is canonical: the same logical map serializes to
// byte-identical output whatever order it was built in. The serving layer's
// cache key depends on this.
func TestBinaryCanonical(t *testing.T) {
	a, err := NewXLocations(4, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewXLocations(4, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	type loc struct{ p, chain, pos int }
	locs := []loc{{3, 1, 2}, {0, 0, 0}, {15, 3, 4}, {7, 1, 2}, {2, 2, 0}, {9, 0, 4}}
	for _, l := range locs {
		if err := a.AddX(l.p, l.chain, l.pos); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(locs) - 1; i >= 0; i-- {
		if err := b.AddX(locs[i].p, locs[i].chain, locs[i].pos); err != nil {
			t.Fatal(err)
		}
	}
	var ba, bb bytes.Buffer
	if err := a.WriteBinary(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("build order leaked into the binary encoding")
	}
}

// Binary and JSON must describe the same map; the binary form exists to be
// cheaper, not different.
func TestBinaryJSONCrossFormat(t *testing.T) {
	x := randomXLocations(t, 3, 5, 17, 120, 0.05)
	var js, bin bytes.Buffer
	if err := x.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Fatalf("binary (%d bytes) not smaller than JSON (%d bytes)", bin.Len(), js.Len())
	}
	fromJSON, err := ReadXLocations(&js)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadXLocationsBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !fromJSON.m.Equal(fromBin.m) {
		t.Fatal("JSON and binary round trips disagree")
	}
}

func TestReadXLocationsBinaryErrors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := PaperExample().WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	overflow := append([]byte(binMagic), binVersion)
	overflow = append(overflow, bytes.Repeat([]byte{0xff}, 10)...)
	cases := []struct {
		name    string
		in      []byte
		wantErr string
	}{
		{"empty", nil, "unexpected EOF"},
		{"magic only", []byte(binMagic), "unexpected EOF"},
		{"bad magic", []byte("XMAPQ\x01"), "bad magic"},
		{"bad version", []byte(binMagic + "\x07"), "unsupported binary version"},
		{"header truncated", binStream(5, 3), "unexpected EOF"},
		{"record truncated", valid[:len(valid)-2], "unexpected EOF"},
		{"varint overflow", overflow, "overflow"},
		{"oversized dimension", binStream(1 << 40), "exceeds limit"},
		{"zero geometry", binStream(0, 1, 1, 0), "chain"},
		{"zero patterns", binStream(1, 1, 0, 0), "pattern count"},
		{"too many cell records", binStream(2, 2, 4, 5), "5 X cells for 4-cell design"},
		// 2x2 cells, 4 patterns, 2 records: cell 1 then gap 0 = duplicate.
		{"duplicate cell", binStream(2, 2, 4, 2, 1, 1, 0, 0, 1, 0), "duplicate record for cell 1"},
		// one record, cell 0, count 2, pattern 3 then gap 0 = duplicate.
		{"duplicate pattern", binStream(2, 2, 4, 1, 0, 2, 3, 0), "duplicate pattern 3"},
		{"cell out of range", binStream(2, 2, 4, 1, 9, 1, 0), "cell 9 out of range"},
		{"pattern out of range", binStream(2, 2, 4, 1, 0, 1, 6), "pattern 6 out of range"},
		{"zero pattern count", binStream(2, 2, 4, 1, 0, 0), "pattern count 0 out of range"},
		{"excess pattern count", binStream(2, 2, 4, 1, 0, 5), "pattern count 5 out of range"},
		{"trailing data", append(append([]byte{}, valid...), 0x00), "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadXLocationsBinary(bytes.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted malformed stream")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := ReadXLocationsBinary(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error %v does not match io.ErrUnexpectedEOF", err)
	}
}

// cktb returns the full CKT-B workload map (seed 0) and its XMAPB encoding,
// built once: about 2.9 MB, so it spans hundreds of decoder windows and
// encoder buffer flushes.
var cktb = sync.OnceValues(func() (*XLocations, error) {
	return Workload("ckt-b", 0)
})

func cktbEncoding(t *testing.T) (*XLocations, []byte) {
	t.Helper()
	x, err := cktb()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return x, buf.Bytes()
}

// The encoder's bytes are pinned on a map large enough to need many buffer
// flushes; the flow and CLI digest goldens cover small maps only. The
// digest is the sha256 the byte-at-a-time encoder produced for the same
// map, so a change to the buffering cannot move a cache key.
func TestBinaryCKTBEncodingPinned(t *testing.T) {
	const want = "9cb37a8a1b79698857ed1465296156e20a6b896d7cf212aca597e0fdcfa33616"
	_, data := cktbEncoding(t)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("CKT-B XMAPB sha256 = %s, want %s", got, want)
	}
}

// failingWriter accepts its first write and fails every later one.
type failingWriter struct {
	calls int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > 1 {
		return 0, w.err
	}
	return len(p), nil
}

func TestWriteBinaryWriterError(t *testing.T) {
	x, _ := cktbEncoding(t)
	boom := errors.New("disk full")
	w := &failingWriter{err: boom}
	if err := x.WriteBinary(w); !errors.Is(err, boom) {
		t.Fatalf("WriteBinary = %v, want the writer's error", err)
	}
	if w.calls != 2 {
		t.Fatalf("%d writes, want the encoder to stop at the first failure (2)", w.calls)
	}
}

// The decoder's window must not care how the reader splits the stream:
// one byte per Read, half of each request, or the final bytes arriving
// together with io.EOF all decode the map a byte slice does.
func TestReadXLocationsBinaryReaders(t *testing.T) {
	_, data := cktbEncoding(t)
	want, err := ReadXLocationsBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one byte":   iotest.OneByteReader(bytes.NewReader(data)),
		"half":       iotest.HalfReader(bytes.NewReader(data)),
		"data + EOF": iotest.DataErrReader(bytes.NewReader(data)),
	} {
		t.Run(name, func(t *testing.T) {
			got, err := ReadXLocationsBinary(r)
			if err != nil {
				t.Fatal(err)
			}
			if !got.m.Equal(want.m) || got.geom != want.geom {
				t.Fatal("decoded a different map")
			}
		})
	}
}

// A multi-byte varint that starts near the end of the window is completed
// by the refill: a three-byte pattern gap is placed at every offset from
// well before the window's end to just past it.
func TestReadXLocationsBinaryVarintStraddlesRefill(t *testing.T) {
	const patterns = 1 << 15
	const big = 1 << 14 // a three-byte varint
	head := binStream(1, 1, patterns, 1, 0)
	for start := binWindow - 2*binary.MaxVarintLen64; start <= binWindow+2; start++ {
		// One cell: pattern 0, then lead gaps of 1, the big gap, and two
		// more gaps of 1. Its count takes two bytes.
		lead := start - len(head) - 3
		count := uint64(lead + 4)
		in := binary.AppendUvarint(append([]byte{}, head...), count)
		in = append(in, 0)
		in = append(in, bytes.Repeat([]byte{1}, lead)...)
		if len(in) != start {
			t.Fatalf("big gap at offset %d, want %d", len(in), start)
		}
		in = binary.AppendUvarint(in, big)
		in = append(in, 1, 1)
		want, err := NewXLocations(1, 1, patterns)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{lead + big, lead + big + 1, lead + big + 2} {
			if err := want.AddX(p, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p <= lead; p++ {
			if err := want.AddX(p, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		for name, r := range map[string]io.Reader{
			"window reads": bytes.NewReader(in),
			"half reads":   iotest.HalfReader(bytes.NewReader(in)),
		} {
			got, err := ReadXLocationsBinary(r)
			if err != nil {
				t.Fatalf("offset %d, %s: %v", start, name, err)
			}
			if !got.m.Equal(want.m) {
				t.Fatalf("offset %d, %s: decoded a different map", start, name)
			}
		}
	}
}

// An error the reader returns part way through comes back wrapped,
// wherever the stream breaks: in the header, at a window boundary, mid
// record, or after the last record, where the decoder reads on to EOF.
func TestReadXLocationsBinaryReaderError(t *testing.T) {
	_, data := cktbEncoding(t)
	boom := errors.New("connection reset")
	for _, cut := range []int{0, 3, 7, binWindow - 1, binWindow + 5, len(data) / 2, len(data)} {
		r := io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom))
		if _, err := ReadXLocationsBinary(r); !errors.Is(err, boom) {
			t.Fatalf("cut at %d: error %v, want it to wrap the reader's error", cut, err)
		}
	}
}
