package wire

import (
	"bytes"
	"testing"

	"iaccf/internal/hashsig"
)

// TestAppendWriterMatchesStreamWriter proves the in-memory writer mode is
// byte-identical to the buffered stream writer for every field type.
func TestAppendWriterMatchesStreamWriter(t *testing.T) {
	emit := func(w *Writer) {
		w.Uint32(7)
		w.Uint64(1 << 40)
		w.Bytes([]byte("payload"))
		w.String("key")
		w.Digest(hashsig.Sum([]byte("d")))
		w.Nonce(hashsig.NonceFromSeed("n"))
	}
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	emit(sw)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}

	aw := NewAppendWriter(nil)
	emit(aw)
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), aw.AppendedBytes()) {
		t.Fatalf("append writer diverges from stream writer:\n%x\n%x", buf.Bytes(), aw.AppendedBytes())
	}
}

// TestBytesReaderMatchesStreamReader decodes the same encoding through both
// reader modes and checks every field and the EOF discipline agree.
func TestBytesReaderMatchesStreamReader(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uint32(42)
	w.Bytes([]byte("hello"))
	w.String("world")
	w.Uint64(99)
	w.Digest(hashsig.Sum([]byte("x")))
	enc := w.AppendedBytes()

	check := func(r *Reader, name string) {
		t.Helper()
		if got := r.Uint32(); got != 42 {
			t.Fatalf("%s: Uint32 = %d", name, got)
		}
		if got := r.Bytes(1 << 10); string(got) != "hello" {
			t.Fatalf("%s: Bytes = %q", name, got)
		}
		if got := r.String(1 << 10); got != "world" {
			t.Fatalf("%s: String = %q", name, got)
		}
		if got := r.Uint64(); got != 99 {
			t.Fatalf("%s: Uint64 = %d", name, got)
		}
		if got := r.Digest(); got != hashsig.Sum([]byte("x")) {
			t.Fatalf("%s: Digest = %v", name, got)
		}
		r.ExpectEOF()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check(NewReader(bytes.NewReader(enc)), "stream")
	check(NewBytesReader(enc), "bytes")
}

func TestBytesReaderTrailingData(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Uint32(1)
	enc := append(w.AppendedBytes(), 0xFF)
	r := NewBytesReader(enc)
	r.Uint32()
	r.ExpectEOF()
	if r.Err() == nil {
		t.Fatal("trailing data not rejected in bytes mode")
	}
}

func TestBytesReaderTruncation(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Bytes([]byte("hello"))
	enc := w.AppendedBytes()
	for cut := 0; cut < len(enc); cut++ {
		r := NewBytesReader(enc[:cut])
		r.Bytes(1 << 10)
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestBytesOwnedCopy: Bytes must return an owned copy even in bytes mode —
// decoded values may be retained past the input buffer's lifetime.
func TestBytesOwnedCopy(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Bytes([]byte("retain-me"))
	enc := w.AppendedBytes()
	r := NewBytesReader(enc)
	got := r.Bytes(1 << 10)
	for i := range enc {
		enc[i] = 0xDB
	}
	if string(got) != "retain-me" {
		t.Fatalf("Bytes aliased the input: %q", got)
	}
}

// TestBytesViewLimit: a bytes-mode Reader refuses a field over its limit
// even though every claimed byte is present in the input it reads in
// place. The aliasing BytesView this once covered is gone; Bytes is now
// the one variable-length read over that input.
func TestBytesViewLimit(t *testing.T) {
	w := NewAppendWriter(nil)
	w.Bytes(make([]byte, 100))
	r := NewBytesReader(w.AppendedBytes())
	if got := r.Bytes(10); got != nil || r.Err() == nil {
		t.Fatal("Bytes over limit not rejected")
	}
}
