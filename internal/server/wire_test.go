package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"testing"

	"xhybrid"
)

func gzipped(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryAndGzipCacheHit is the regression test for the cache key: it
// must be a digest of the decoded in-memory map, so one entry serves the
// same design no matter which wire format — JSON, binary, gzipped either —
// the request arrived in.
func TestBinaryAndGzipCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	jsonBody := fixtureBody(t)
	x, err := xhybrid.ReadXLocations(bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}

	first := post(t, s, "/v1/partition?m=10&q=2", jsonBody, nil)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("json post: %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	cases := []struct {
		name string
		body []byte
		hdr  map[string]string
	}{
		{"binary sniffed", bin.Bytes(), nil},
		{"binary content-type", bin.Bytes(), map[string]string{"Content-Type": "application/octet-stream"}},
		{"binary gzip", gzipped(t, bin.Bytes()), map[string]string{"Content-Encoding": "gzip"}},
		{"json gzip", gzipped(t, jsonBody), map[string]string{"Content-Encoding": "gzip"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/partition?m=10&q=2", tc.body, tc.hdr)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if got := w.Header().Get("X-Cache"); got != "hit" {
				t.Fatalf("X-Cache = %q, want hit (cache key must not depend on the wire format)", got)
			}
			var resp partitionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			var firstResp partitionResponse
			if err := json.Unmarshal(first.Body.Bytes(), &firstResp); err != nil {
				t.Fatal(err)
			}
			if resp.Digest != firstResp.Digest {
				t.Fatalf("digest %s differs from JSON request's %s", resp.Digest, firstResp.Digest)
			}
		})
	}
	snap := s.rec.Snapshot()
	if misses := snap.CounterValue("server.cache.misses"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (only the first request should compute)", misses)
	}
}

// The input= parameter forces a format regardless of sniffing, and the
// binary format works through /v1/analyze too.
func TestBinaryInputParam(t *testing.T) {
	s := newTestServer(t, Config{})
	x, err := xhybrid.ReadXLocations(bytes.NewReader(fixtureBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if w := post(t, s, "/v1/analyze?input=binary", bin.Bytes(), nil); w.Code != http.StatusOK {
		t.Fatalf("analyze binary: %d %s", w.Code, w.Body.String())
	}
	// Forcing input=json on a binary body must fail cleanly, not sniff.
	if w := post(t, s, "/v1/analyze?input=json", bin.Bytes(), nil); w.Code != http.StatusBadRequest {
		t.Fatalf("binary body as input=json: %d, want 400", w.Code)
	}
	if w := post(t, s, "/v1/analyze?input=nonsense", bin.Bytes(), nil); w.Code != http.StatusBadRequest {
		t.Fatalf("input=nonsense: %d, want 400", w.Code)
	}
}

func TestBodyEncodingErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 2048})
	body := fixtureBody(t)
	if w := post(t, s, "/v1/analyze", body, map[string]string{"Content-Encoding": "br"}); w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("unsupported encoding: %d, want 415", w.Code)
	}
	if w := post(t, s, "/v1/analyze", []byte("not gzip at all"), map[string]string{"Content-Encoding": "gzip"}); w.Code != http.StatusBadRequest {
		t.Fatalf("corrupt gzip: %d, want 400", w.Code)
	}
	// A small compressed body that inflates past MaxBodyBytes is 413, same
	// as an oversized plain body: the limit bounds the decoded input.
	bomb := gzipped(t, bytes.Repeat([]byte{' '}, 1<<20))
	if len(bomb) > 2048 {
		t.Fatalf("bomb is %d wire bytes, want under the limit", len(bomb))
	}
	if w := post(t, s, "/v1/analyze", bomb, map[string]string{"Content-Encoding": "gzip"}); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("decompression past limit: %d, want 413", w.Code)
	}
}

// A gzip XMAPB body whose CRC-32 trailer is corrupt is refused with 400.
// gzip verifies the trailer only when the inflated stream reaches EOF, so
// this holds because the binary decoder reads on to EOF after the last
// record.
func TestGzipBinaryBadChecksum(t *testing.T) {
	s := newTestServer(t, Config{})
	x, err := xhybrid.ReadXLocations(bytes.NewReader(fixtureBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := x.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	body := gzipped(t, bin.Bytes())
	body[len(body)-8] ^= 0xff // the trailer is CRC-32 then size, 4 bytes each
	w := post(t, s, "/v1/partition", body, map[string]string{"Content-Encoding": "gzip"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("corrupt gzip trailer: %d %s, want 400", w.Code, w.Body.String())
	}
}
