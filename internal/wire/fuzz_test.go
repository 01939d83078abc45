package wire

import (
	"bytes"
	"testing"
)

// streamHeaderCorpus seeds FuzzDecodeStreamHeader; the entries also run as
// plain tests under `go test` (the testing package executes f.Add seeds
// without -fuzz), so the corpus doubles as a regression table.
func streamHeaderCorpus() [][]byte {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	(&StreamHeader{Version: StreamVCurrent}).EncodeTo(w)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	v := valid.Bytes()
	return [][]byte{
		v,
		v[:len(v)-1],                      // truncated version
		v[:4],                             // magic only
		{},                                // empty
		{0xde, 0xad, 0xbe, 0xef},          // foreign magic
		append(append([]byte{}, v...), 0), // trailing byte (caller's concern)
		{0x69, 0x61, 0x63, 0x63, 0, 0, 0, 1, 0, 0, 0, 1}, // legacy version 1
		{0x69, 0x61, 0x63, 0x63, 0, 0, 0, 2, 0, 0, 0, 4}, // version 2, four shards
		{0x69, 0x61, 0x63, 0x63, 0, 0, 0, 3, 0, 0, 0, 1}, // version 3, one shard
	}
}

func FuzzDecodeStreamHeader(f *testing.F) {
	for _, seed := range streamHeaderCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		h, err := DecodeStreamHeader(r)
		if err != nil {
			return
		}
		// Whatever decodes must satisfy the documented invariants and
		// re-encode to the exact bytes consumed.
		if h.Version != StreamVCurrent {
			t.Fatalf("decoded unsupported version %d", h.Version)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		h.EncodeTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding %+v diverges from input", h)
		}
	})
}

// FuzzReaderBytes drives the length-prefixed primitives: no input may cause
// a panic or an allocation beyond the declared limit, and the bytes-mode
// reader, which checks a claimed length against what is present before
// allocating, must agree with the stream reader.
func FuzzReaderBytes(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'}, uint32(16))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(16))
	f.Add([]byte{0, 0, 0, 5, 'x'}, uint32(4))
	f.Add([]byte{0, 0x10, 0, 0, 'x'}, uint32(1<<20)) // claims the limit, holds one byte
	f.Fuzz(func(t *testing.T, data []byte, max uint32) {
		if max > 1<<20 {
			max = 1 << 20 // keep hostile limits from masking hostile data
		}
		r := NewReader(bytes.NewReader(data))
		b := r.Bytes(max)
		if uint32(len(b)) > max {
			t.Fatalf("Bytes returned %d > limit %d", len(b), max)
		}
		if r.Err() != nil && b != nil {
			t.Fatal("failed read returned data")
		}
		br := NewBytesReader(data)
		bb := br.Bytes(max)
		if (br.Err() == nil) != (r.Err() == nil) || !bytes.Equal(bb, b) {
			t.Fatalf("bytes mode read %x (err %v), stream mode %x (err %v)", bb, br.Err(), b, r.Err())
		}
		if cap(bb) > len(data) {
			t.Fatalf("bytes mode allocated %d for a %d-byte input", cap(bb), len(data))
		}
	})
}
