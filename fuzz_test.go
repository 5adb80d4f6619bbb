package xhybrid

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReadXLocationsText exercises the text parser: it must never panic,
// and anything it accepts must re-serialize and re-parse to the same map.
func FuzzReadXLocationsText(f *testing.F) {
	f.Add("design 2 3 4\nx 0 1 2\nxr 1 0 0 2\n")
	f.Add("design 1 1 1\n")
	f.Add("# comment\ndesign 5 3 8\nx 7 4 2\n")
	f.Add("design 0 0 0")
	f.Add("x 1 1 1")
	// Regression seeds: the pre-strict Sscanf parser accepted these
	// malformed shapes (trailing garbage / wrong field counts) as valid.
	f.Add("design 2 3 4\nx 1 2 3 junk\n")
	f.Add("design 8 10 4 extra")
	f.Add("design 2 3 4\nxr 1 0 0 2 9\n")
	f.Add("design 2 3 4\nx 1 2\n")
	f.Add("design 2 3 4\nx 1 2 3.5\n")
	f.Fuzz(func(t *testing.T, in string) {
		x, err := ReadXLocationsText(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := x.WriteText(&buf); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		y, err := ReadXLocationsText(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if y.TotalX() != x.TotalX() || y.Patterns() != x.Patterns() || y.Cells() != x.Cells() {
			t.Fatal("round trip changed the map")
		}
	})
}

// FuzzReadXLocationsJSON exercises the JSON reader the same way.
func FuzzReadXLocationsJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := PaperExample().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"chains":1,"chainLen":1,"patterns":1}`)
	f.Add(`{}`)
	// Regression seeds: duplicate cell records and repeated pattern indices
	// were silently merged before the reader rejected them.
	f.Add(`{"chains":2,"chainLen":2,"patterns":4,"cells":[{"cell":1,"p":[0]},{"cell":1,"p":[2]}]}`)
	f.Add(`{"chains":2,"chainLen":2,"patterns":4,"cells":[{"cell":0,"p":[3,1,3]}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		x, err := ReadXLocations(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := x.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		y, err := ReadXLocations(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if y.TotalX() != x.TotalX() {
			t.Fatal("round trip changed the map")
		}
	})
}

// FuzzReadXLocationsBinary exercises the binary wire decoder: no panic on
// arbitrary bytes, the same outcome whether the bytes arrive at once or one
// per read, and anything it accepts must re-encode canonically and agree
// with the JSON form of the same map.
func FuzzReadXLocationsBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := PaperExample().WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	full := seed.Bytes()
	f.Add(append([]byte{}, full...))
	// Truncated headers: mid-magic, magic without version, version without
	// header fields, and a header cut mid-varint.
	f.Add([]byte("XMA"))
	f.Add([]byte("XMAPB"))
	f.Add([]byte("XMAPB\x01"))
	f.Add(append([]byte("XMAPB\x01"), 0x85))
	f.Add(append([]byte{}, full[:len(full)-3]...))
	// Varint overflow: ten 0xff continuation bytes exceed 64 bits.
	f.Add(append([]byte("XMAPB\x01"), bytes.Repeat([]byte{0xff}, 10)...))
	// Duplicate records: a cell gap of 0 repeats the previous cell, a
	// pattern gap of 0 repeats the previous pattern.
	dupCell := []byte("XMAPB\x01")
	for _, v := range []uint64{2, 2, 4, 2, 1, 1, 0, 0, 1, 0} {
		dupCell = binary.AppendUvarint(dupCell, v)
	}
	f.Add(dupCell)
	dupPattern := []byte("XMAPB\x01")
	for _, v := range []uint64{2, 2, 4, 1, 0, 2, 3, 0} {
		dupPattern = binary.AppendUvarint(dupPattern, v)
	}
	f.Add(dupPattern)
	f.Fuzz(func(t *testing.T, in []byte) {
		x, err := ReadXLocationsBinary(bytes.NewReader(in))
		// The refill path: the same bytes handed over one at a time must
		// be accepted or refused alike, and decode to the same map.
		xb, errb := ReadXLocationsBinary(iotest.OneByteReader(bytes.NewReader(in)))
		if (err == nil) != (errb == nil) {
			t.Fatalf("byte slice: %v; one byte per read: %v", err, errb)
		}
		if err != nil {
			return
		}
		if !xb.m.Equal(x.m) || xb.geom != x.geom {
			t.Fatal("one byte per read decoded a different map")
		}
		var bin bytes.Buffer
		if err := x.WriteBinary(&bin); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		y, err := ReadXLocationsBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !y.m.Equal(x.m) || y.geom != x.geom {
			t.Fatal("round trip changed the map")
		}
		// Canonical: re-encoding the round-tripped map is byte-stable even
		// when the accepted input used non-minimal varints.
		var again bytes.Buffer
		if err := y.WriteBinary(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), again.Bytes()) {
			t.Fatal("re-encoding is not canonical")
		}
		// Cross-format: the JSON round trip of the same map must agree.
		var js bytes.Buffer
		if err := x.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		z, err := ReadXLocations(&js)
		if err != nil {
			t.Fatalf("JSON round trip of accepted binary failed: %v", err)
		}
		if !z.m.Equal(x.m) {
			t.Fatal("JSON and binary disagree")
		}
	})
}
