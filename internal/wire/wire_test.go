package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"iaccf/internal/hashsig"
)

func TestAppendMatchesWriter(t *testing.T) {
	d := hashsig.Sum([]byte("digest"))

	var appended []byte
	appended = AppendUint32(appended, 7)
	appended = AppendUint64(appended, 1<<40)
	appended = AppendBytes(appended, []byte("payload"))
	appended = AppendString(appended, "key")
	appended = AppendDigest(appended, d)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint32(7)
	w.Uint64(1 << 40)
	w.Bytes([]byte("payload"))
	w.String("key")
	w.Digest(d)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatal("Append* and Writer disagree on encoding")
	}
}

func TestRoundTrip(t *testing.T) {
	d := hashsig.Sum([]byte("digest"))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint32(42)
	w.Uint64(1 << 50)
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.String("world")
	w.Digest(d)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.Uint32(); got != 42 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 1<<50 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Bytes(MaxValueLen); string(got) != "hello" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.Bytes(MaxValueLen); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	if got := r.String(MaxKeyLen); got != "world" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Digest(); got != d {
		t.Fatal("Digest mismatch")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncated(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0}))
	r.Uint32()
	if r.Err() == nil {
		t.Fatal("truncated uint32 not reported")
	}
	// Sticky: further reads stay failed and return zero values.
	if got := r.Uint64(); got != 0 {
		t.Fatalf("read after error = %d", got)
	}
}

// TestReaderCutInsideDigest: a stream that ends inside a fixed-width field
// fails with ErrCorrupt, the field reads as zero, and the failure sticks.
func TestReaderCutInsideDigest(t *testing.T) {
	d := hashsig.Sum([]byte("digest"))
	r := NewReader(bytes.NewReader(d[:20]))
	if got := r.Digest(); got != (hashsig.Digest{}) {
		t.Fatalf("cut digest read as %v, want zero", got)
	}
	err := r.Err()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cut digest: error %v, want ErrCorrupt", err)
	}
	if got := r.Uint32(); got != 0 || r.Err() != err {
		t.Fatalf("read after the cut: %d, error %v; want 0 and the first error", got, r.Err())
	}
}

// TestFixedWidthReadsAllocateNothing: Byte, Uint32, Uint64, Digest and
// Nonce decode into scratch that stays on the stack, from a byte slice and
// from a stream alike. Every entry and frame decode pays these per field.
func TestFixedWidthReadsAllocateNothing(t *testing.T) {
	input := make([]byte, 1+4+8+hashsig.DigestSize+hashsig.NonceSize)
	for i := range input {
		input[i] = byte(i)
	}
	readAll := func(r *Reader) {
		r.Byte()
		r.Uint32()
		r.Uint64()
		r.Digest()
		r.Nonce()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	src := bytes.NewReader(input)
	br := bufio.NewReader(src)
	for mode, run := range map[string]func(){
		"bytes": func() {
			r := Reader{data: input}
			readAll(&r)
		},
		"stream": func() {
			src.Reset(input)
			br.Reset(src)
			r := Reader{br: br}
			readAll(&r)
		},
	} {
		if got := testing.AllocsPerRun(1000, run); got != 0 {
			t.Errorf("%s mode: %.1f allocations per five fixed-width reads, want 0", mode, got)
		}
	}
}

// TestWriteFrameAllocatesNothing: the length prefix goes into the writer's
// own buffer. Counted over 1 000 calls: a 4-byte allocation shares a tiny
// allocator block with its neighbours, and a short count can miss it.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	frame := make([]byte, 100)
	if got := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(w, frame); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("WriteFrame: %.1f allocations per frame, want 0", got)
	}
}

// TestReaderLengthLimit: a length prefix over the field's limit fails the
// reader with ErrCorrupt and yields the zero value, for every
// variable-length read in either mode; at the limit the same field decodes.
func TestReaderLengthLimit(t *testing.T) {
	// The claimed bytes are present, so only the limit can refuse them.
	in := AppendBytes(nil, make([]byte, 100))
	modes := map[string]func() *Reader{
		"stream": func() *Reader { return NewReader(bytes.NewReader(in)) },
		"bytes":  func() *Reader { return NewBytesReader(in) },
	}
	reads := map[string]func(r *Reader, max uint32) int{
		"Bytes":  func(r *Reader, max uint32) int { return len(r.Bytes(max)) },
		"String": func(r *Reader, max uint32) int { return len(r.String(max)) },
	}
	for name, read := range reads {
		for mode, open := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				r := open()
				if n := read(r, 99); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
					t.Fatalf("over the limit: %d bytes, err %v", n, r.Err())
				}
				r = open()
				if n := read(r, 100); n != 100 || r.Err() != nil {
					t.Fatalf("at the limit: %d bytes, err %v", n, r.Err())
				}
			})
		}
	}
}

func TestReaderFail(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4}))
	r.Fail(ErrCorrupt)
	if r.Err() != ErrCorrupt {
		t.Fatal("Fail did not stick")
	}
	if got := r.Uint32(); got != 0 {
		t.Fatal("read after Fail succeeded")
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	for i := 0; i < 2000; i++ {
		w.Uint64(uint64(i)) // overflow the bufio buffer to force the write
	}
	if w.Flush() == nil {
		t.Fatal("writer error not reported")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, ErrCorrupt }

func TestStreamHeaderRoundTrip(t *testing.T) {
	for _, h := range []StreamHeader{{Version: StreamVCurrent}} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		h.EncodeTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		got, err := DecodeStreamHeader(r)
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestStreamHeaderRejects(t *testing.T) {
	encode := func(fields ...uint32) *Reader {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, f := range fields {
			w.Uint32(f)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return NewReader(&buf)
	}
	if _, err := DecodeStreamHeader(encode(0xdeadbeef, StreamVCurrent)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeStreamHeader(encode(StreamMagic, StreamVCurrent+1)); err == nil {
		t.Fatal("future version accepted")
	}
	// Version 3 framed batches under a shard count, per-shard trees and a
	// per-shard d_C: its headers carry a field this version does not, so a
	// version-3 stream is refused before a batch is read.
	if _, err := DecodeStreamHeader(encode(StreamMagic, 3, 1)); err == nil {
		t.Fatal("version 3 accepted")
	}
	// The unframed pre-sharding format had no header, so "version 1" only
	// ever appears in a crafted stream; it is rejected like any unknown.
	if _, err := DecodeStreamHeader(encode(StreamMagic, 1, 4)); err == nil {
		t.Fatal("version 1 accepted")
	}
	if _, err := DecodeStreamHeader(encode(StreamMagic, 0)); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := DecodeStreamHeader(encode(StreamMagic)); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestReadFrameRefusesBeforeAllocating: a length prefix over the cap is
// refused without allocating, so a hostile peer cannot make the reader
// reserve the memory it announces.
func TestReadFrameRefusesBeforeAllocating(t *testing.T) {
	prefix := binary.BigEndian.AppendUint32(nil, 1<<31)
	src := bytes.NewReader(prefix)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(prefix)
		br.Reset(src)
		if _, err := ReadFrame(br, nil, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("oversized prefix cost %.0f allocations", allocs)
	}
}

// allocatedPerCall returns the bytes f allocates per call, averaged over
// runs calls.
func allocatedPerCall(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestBytesAllocatesWhatIsPresent: a length field that claims more than
// the input holds costs what is present, not what is claimed. A bytes-mode
// Reader refuses it before it allocates, with the ErrCorrupt a truncation
// has always failed with; a stream-mode Reader and ReadFrame, which cannot
// see the input's end, grow their buffer only as bytes arrive. Each limit
// is one a socket or a ledger reaches: an entry payload or an RPC request
// body (MaxValueLen) and a state-transfer chunk (MaxChunkLen). A 4-byte
// claim of either used to allocate the whole claim.
func TestBytesAllocatesWhatIsPresent(t *testing.T) {
	for _, max := range []uint32{MaxValueLen, MaxChunkLen} {
		input := append(binary.BigEndian.AppendUint32(nil, max), "short"...)
		src := bytes.NewReader(input)
		br := bufio.NewReader(src)
		for _, c := range []struct {
			mode  string
			bound uint64
			read  func() error
		}{
			{"bytes", 4 << 10, func() error {
				r := NewBytesReader(input)
				if r.Bytes(max) != nil {
					t.Fatal("a truncated field decoded")
				}
				return r.Err()
			}},
			{"stream", readStep + 4<<10, func() error {
				src.Reset(input)
				br.Reset(src)
				r := Reader{br: br}
				if r.Bytes(max) != nil {
					t.Fatal("a truncated field decoded")
				}
				return r.Err()
			}},
			{"frame", readStep + 4<<10, func() error {
				src.Reset(input)
				br.Reset(src)
				_, err := ReadFrame(br, make([]byte, 0, 64), max)
				return err
			}},
		} {
			var err error
			perCall := allocatedPerCall(20, func() { err = c.read() })
			if c.mode == "frame" && err != io.ErrUnexpectedEOF || c.mode != "frame" && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s mode, claim of %d: error %v", c.mode, max, err)
			}
			if perCall > c.bound {
				t.Fatalf("%s mode, claim of %d over 9 bytes: %d B allocated per call", c.mode, max, perCall)
			}
		}
	}
	r := NewBytesReader(binary.BigEndian.AppendUint32(nil, 3))
	if r.Bytes(16); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("truncated field: error %v", r.Err())
	}
}

// TestReadGrowsToTheClaim: a body longer than readStep, whose buffer grows
// as it arrives, reads back whole in stream mode and through ReadFrame,
// from no buffer, a small one and one that already holds it.
func TestReadGrowsToTheClaim(t *testing.T) {
	body := make([]byte, 5*readStep+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	input := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	input = append(input, body...)
	r := NewReader(bytes.NewReader(input))
	if got := r.Bytes(MaxChunkLen); r.Err() != nil || !bytes.Equal(got, body) {
		t.Fatalf("stream Bytes: %d bytes, error %v", len(got), r.Err())
	}
	for _, buf := range [][]byte{nil, make([]byte, 10), make([]byte, 0, len(body))} {
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(input)), buf, MaxChunkLen)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("ReadFrame into cap %d: %d bytes, error %v", cap(buf), len(got), err)
		}
		if cap(buf) >= len(body) && &got[0] != &buf[:1][0] {
			t.Fatal("ReadFrame reallocated a buffer that held the frame")
		}
	}
}
