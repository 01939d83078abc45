// Package wire is the deterministic binary codec shared by every IA-CCF
// serialization surface: key-value checkpoints, ledger entries, batch
// headers, and receipts. All integers are big-endian; variable-length byte
// strings are length-prefixed with a uint32. Two encoders given the same
// logical value always produce identical bytes, which is what lets replicas
// compare checkpoint digests d_C and lets auditors re-derive entry digests
// during replay (paper §3.1, §3.4).
//
// The package offers two styles:
//
//   - Append* functions build small messages in memory (ledger entries,
//     signing preimages) without an intermediate writer.
//   - Writer/Reader stream large structures (checkpoints) with sticky error
//     handling, so call sites stay free of per-field error plumbing.
//
// ReadFrame/WriteFrame carry length-prefixed frames over a stream: the one
// framing the replica transport and the client RPC share.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"iaccf/internal/hashsig"
)

// ErrCorrupt reports a malformed or hostile input stream.
var ErrCorrupt = errors.New("wire: corrupt input")

// Limits on variable-length fields, enforced on decode so a hostile stream
// cannot drive huge allocations. Encoding never checks: producers are
// trusted to stay within them.
const (
	// MaxKeyLen bounds key-value store keys.
	MaxKeyLen = 1 << 20
	// MaxValueLen bounds key-value store values and ledger entry payloads.
	MaxValueLen = 1 << 24
	// MaxChunkLen bounds one state-transfer chunk payload: the store's
	// canonical serialization or one batch's encoding, framed as an opaque
	// byte field in sync messages.
	MaxChunkLen = 1 << 26
)

// Batch-stream framing. Every serialized batch stream opens with a
// StreamHeader so readers reject foreign or stale bytes early and so the
// format can evolve behind the version field. The version count starts at
// 2: the pre-sharding stream ("version 1") had no header at all — its
// first bytes were the raw batch count — so any unframed legacy stream
// fails the magic check rather than mis-decoding. Version 2 carried the
// execution shard count that per-shard checkpoint digests and batch trees
// depended on. Version 3 changed the batch header: it is the whole
// pre-prepare statement (view, primary and nonce commitment before the
// content fields) under one signature over all of it. Version 4 dropped
// the partition: the stream header and every batch header lose their
// shard count, ¯G is the root of one batch tree, and d_C the digest of
// one trie. A stream of any other version is refused here.
const (
	// StreamMagic opens every batch stream ("iacc").
	StreamMagic = 0x69616363
	// StreamVCurrent is the only version current readers decode; writers
	// always emit it. Future format changes bump it and gate their fields
	// on it.
	StreamVCurrent = 4
)

// StreamHeader is the versioned opening of a batch stream.
type StreamHeader struct {
	Version uint32
}

// EncodeTo writes the header: magic, version.
func (h *StreamHeader) EncodeTo(w *Writer) {
	w.Uint32(StreamMagic)
	w.Uint32(h.Version)
}

// DecodeStreamHeader reads and validates a stream header. Foreign magic
// and versions other than StreamVCurrent are rejected.
func DecodeStreamHeader(r *Reader) (StreamHeader, error) {
	if m := r.Uint32(); r.Err() == nil && m != StreamMagic {
		return StreamHeader{}, fmt.Errorf("%w: bad stream magic %#x", ErrCorrupt, m)
	}
	h := StreamHeader{Version: r.Uint32()}
	if r.Err() == nil && h.Version != StreamVCurrent {
		return StreamHeader{}, fmt.Errorf("%w: unsupported stream version %d", ErrCorrupt, h.Version)
	}
	if err := r.Err(); err != nil {
		return StreamHeader{}, err
	}
	return h, nil
}

// AppendUint32 appends v big-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// AppendUint64 appends v big-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendBytes appends b with a uint32 length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends s with a uint32 length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendDigest appends the raw digest bytes (fixed size, no prefix).
func AppendDigest(dst []byte, d hashsig.Digest) []byte {
	return append(dst, d[:]...)
}

// Writer streams wire-encoded fields to a sink. The first error sticks:
// subsequent writes are no-ops and Flush reports it. Two sinks exist,
// chosen by constructor:
//
//   - NewWriter buffers onto an io.Writer through bufio — for real streams
//     (files, sockets) where syscall batching matters.
//   - NewAppendWriter appends to a caller-provided byte slice — for
//     building message frames in memory. AppendedBytes returns the
//     accumulated encoding; the backing array is still the caller's.
//
// A byte slice passed to a Writer is copied into the sink, never handed
// on, so it may live on the caller's stack without moving to the heap.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // append mode storage (nil unless append mode)
	app bool   // append mode flag (buf may legitimately be nil/empty)
	err error
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// NewAppendWriter returns a Writer that appends to buf (which may be nil).
// Call AppendedBytes to retrieve the result. Writing never fails.
func NewAppendWriter(buf []byte) *Writer {
	return &Writer{buf: buf, app: true}
}

// AppendedBytes returns everything written so far in append mode. The
// returned slice is the accumulated buffer itself; ownership stays with the
// caller of NewAppendWriter.
func (w *Writer) AppendedBytes() []byte { return w.buf }

// write copies p into the sink and never hands p itself on, so p does not
// escape: in stream mode it appends to bufio's free space
// (AvailableBuffer) and flushes whenever that is full.
func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if w.app {
		w.buf = append(w.buf, p...)
		return
	}
	for len(p) > 0 && w.err == nil {
		if w.bw.Available() == 0 {
			w.err = w.bw.Flush()
			continue
		}
		b := w.bw.AvailableBuffer()
		n := min(len(p), cap(b))
		_, w.err = w.bw.Write(append(b, p[:n]...))
		p = p[n:]
	}
}

// Raw writes p as it is: no length prefix. It is for an encoding a caller
// assembled with the Append functions.
func (w *Writer) Raw(p []byte) { w.write(p) }

// Uint32 writes v big-endian.
func (w *Writer) Uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.write(b[:])
}

// Uint64 writes v big-endian.
func (w *Writer) Uint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.write(b[:])
}

// Bytes writes b with a uint32 length prefix.
func (w *Writer) Bytes(b []byte) {
	w.Uint32(uint32(len(b)))
	w.write(b)
}

// String writes s with a uint32 length prefix.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	if w.err != nil {
		return
	}
	if w.app {
		w.buf = append(w.buf, s...)
	} else {
		_, w.err = w.bw.WriteString(s)
	}
}

// Digest writes the raw digest bytes.
func (w *Writer) Digest(d hashsig.Digest) {
	w.write(d[:])
}

// Nonce writes the raw nonce bytes (fixed size, no prefix). Consensus
// commit messages reveal nonce preimages on the wire (paper §3.1).
func (w *Writer) Nonce(n hashsig.Nonce) {
	w.write(n[:])
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush drains the buffer and returns the first error encountered. In
// append mode there is no buffer to drain; Flush just reports the sticky
// error.
func (w *Writer) Flush() error {
	if w.err != nil || w.bw == nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader streams wire-encoded fields from a source. The first error
// sticks: subsequent reads return zero values and Err reports it. Two
// sources exist:
//
//   - NewReader buffers from an io.Reader — for real streams.
//   - NewBytesReader decodes directly from a byte slice with no bufio
//     buffer and no copy per field read. Decoding entries, requests, and
//     consensus frames — all already fully in memory — through NewReader
//     used to be the single largest allocation source on the commit path
//     (one 4KB bufio buffer per decode).
type Reader struct {
	br   *bufio.Reader
	data []byte // bytes mode source (nil unless bytes mode)
	pos  int    // bytes mode cursor
	err  error
}

// NewReader returns a Reader buffering from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// NewBytesReader returns a Reader decoding directly from b. The Reader
// never mutates b; the caller must not mutate it while decoding. Fields
// returned by Bytes/String are copies, so decoded values outlive b: no
// method hands out a slice of b.
func NewBytesReader(b []byte) *Reader {
	return &Reader{data: b}
}

// take returns the next n bytes of a bytes-mode reader without copying.
func (r *Reader) take(n int) ([]byte, bool) {
	if r.err != nil {
		return nil, false
	}
	if len(r.data)-r.pos < n {
		r.err = fmt.Errorf("%w: unexpected EOF", ErrCorrupt)
		return nil, false
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, true
}

// read fills p, a fixed-width field of at most 32 bytes, from the source.
// In stream mode it peeks at bufio's buffer, copies and discards rather than
// handing p to io.ReadFull: p never leaves this call, so the callers' scratch
// arrays stay on their stacks. Fixed widths sit far below the 4 096 bytes
// NewReader buffers, so Peek fails only at the end of the stream.
func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if r.br == nil {
		b, ok := r.take(len(p))
		if !ok {
			return false
		}
		copy(p, b)
		return true
	}
	b, err := r.br.Peek(len(p))
	if len(b) < len(p) {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a cut field
		}
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return false
	}
	r.br.Discard(copy(p, b))
	return true
}

// Byte reads a single byte (type tags, flags).
func (r *Reader) Byte() byte {
	var b [1]byte
	if !r.read(b[:]) {
		return 0
	}
	return b[0]
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	var b [4]byte
	if !r.read(b[:]) {
		return 0
	}
	return binary.BigEndian.Uint32(b[:])
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	var b [8]byte
	if !r.read(b[:]) {
		return 0
	}
	return binary.BigEndian.Uint64(b[:])
}

// length reads a field's uint32 length prefix and fails r if it exceeds
// max.
func (r *Reader) length(max uint32) (int, bool) {
	n := r.Uint32()
	if r.err == nil && n > max {
		r.err = fmt.Errorf("%w: field length %d exceeds limit %d", ErrCorrupt, n, max)
	}
	return int(n), r.err == nil
}

// Bytes reads a length-prefixed byte string of at most max bytes. The
// result is freshly allocated and owned by the caller, in every mode.
func (r *Reader) Bytes(max uint32) []byte {
	n, ok := r.length(max)
	if !ok {
		return nil
	}
	if r.br == nil {
		// What is claimed must be present before anything is allocated for
		// it: a 4-byte input must not cost a MaxValueLen buffer.
		b, ok := r.take(n)
		if !ok {
			return nil
		}
		return append(make([]byte, 0, n), b...)
	}
	// A stream's length is unknown, so the buffer grows as bytes arrive.
	b, err := readN(r.br, make([]byte, 0, min(n, readStep)), n)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return nil
	}
	return b
}

// readStep is the smallest step by which readN grows a buffer.
const readStep = 64 << 10

// readN reads n bytes from r onto the end of dst. What fits dst's capacity
// is read in place; past it, dst grows in steps of the larger of readStep
// and its length so far, each taken only once the previous one is full. A
// length claim therefore costs memory as its bytes arrive, not when it is
// made, and the growth stays geometric.
func readN(r io.Reader, dst []byte, n int) ([]byte, error) {
	for n > 0 {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(n, max(len(dst), readStep)))
		}
		k := min(n, cap(dst)-len(dst))
		m, err := io.ReadFull(r, dst[len(dst):len(dst)+k])
		dst, n = dst[:len(dst)+m], n-m
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ReadList reads a uint32 element count of at most max, then that many
// elements through read. A larger count fails r before anything is
// allocated for it; what names the elements in that error.
func ReadList[T any](r *Reader, max uint32, what string, read func(*Reader) T) []T {
	n := r.Uint32()
	if r.err == nil && n > max {
		r.err = fmt.Errorf("%w: %d %s exceed the limit %d", ErrCorrupt, n, what, max)
	}
	if r.err != nil {
		return nil
	}
	out := make([]T, 0, min(n, 64))
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, read(r))
	}
	return out
}

// String reads a length-prefixed string of at most max bytes. In bytes
// mode the string conversion is the one copy.
func (r *Reader) String(max uint32) string {
	if r.br != nil {
		return string(r.Bytes(max))
	}
	n, ok := r.length(max)
	if !ok {
		return ""
	}
	b, _ := r.take(n)
	return string(b)
}

// Digest reads raw digest bytes.
func (r *Reader) Digest() hashsig.Digest {
	var d hashsig.Digest
	r.read(d[:])
	return d
}

// Nonce reads raw nonce bytes.
func (r *Reader) Nonce() hashsig.Nonce {
	var n hashsig.Nonce
	r.read(n[:])
	return n
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// ExpectEOF fails the reader if any input remains. Decoders of fixed-shape
// messages call it so that two distinct byte strings can never decode to
// the same value (canonical encodings are what make entry digests binding).
func (r *Reader) ExpectEOF() {
	if r.err != nil {
		return
	}
	if r.br == nil {
		if r.pos != len(r.data) {
			r.err = fmt.Errorf("%w: trailing data", ErrCorrupt)
		}
		return
	}
	if _, err := r.br.ReadByte(); err == nil {
		r.err = fmt.Errorf("%w: trailing data", ErrCorrupt)
	} else if err != io.EOF {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}

// Fail records an error discovered by the caller (for example a bad type
// tag) so it surfaces through Err like any codec error. The first recorded
// error wins.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Annotate wraps an already-recorded error with frame-position context
// ("entry 17 key: …"), preserving the wrapped chain so sentinel
// checks like errors.Is(err, ErrCorrupt) keep working. A clean reader is
// left untouched, so decoders can annotate unconditionally after each
// frame boundary.
func (r *Reader) Annotate(format string, args ...any) {
	if r.err != nil {
		r.err = fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), r.err)
	}
}

// ErrFrameTooLarge reports a length prefix over the reader's cap. Nothing
// of the body has been read or allocated when it is returned.
var ErrFrameTooLarge = errors.New("wire: frame exceeds its length cap")

// ReadFrame reads one length-prefixed frame — a big-endian uint32 length,
// then that many bytes — into buf, growing it only when it is too small, and
// returns the body. The announced length is checked against max before
// anything is allocated, and past buf's capacity the buffer grows only as
// the body arrives, so what a hostile peer makes the reader reserve is in
// proportion to the bytes it sends, not to the length it claims. A stream that ends cleanly before a frame is io.EOF; one
// that ends inside a frame is io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader, buf []byte, max uint32) ([]byte, error) {
	prefix, err := br.Peek(4)
	if len(prefix) < 4 {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	br.Discard(4)
	if n > max {
		return nil, ErrFrameTooLarge
	}
	buf, err = readN(br, buf[:0], int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the length prefix promised a body
		}
		return nil, err
	}
	return buf, nil
}

// WriteFrame writes one frame: its length, then its body. The length is
// appended to w's free space (AvailableBuffer), so it costs no allocation.
func WriteFrame(w *bufio.Writer, frame []byte) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(frame)))); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}
