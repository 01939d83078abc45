package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// encodeConn is what a dialing peer writes: the handshake naming from,
// then every frame through writeFrame.
func encodeConn(tb testing.TB, from NodeID, frames ...[]byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeHandshake(w, from); err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if err := writeFrame(w, f); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// splitFrames cuts data into frames whose lengths the data's own bytes
// choose, so one fuzz input also drives the writeFrame round trip.
func splitFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 {
		n := int(data[0]) % (len(data) + 1)
		frames = append(frames, data[:n])
		data = data[n:]
		if n == 0 {
			data = data[1:] // an empty frame; consume the length byte
		}
	}
	return frames
}

// FuzzReadFrames feeds arbitrary bytes to the inbound side of a connection,
// read the way readLoop reads it: readHandshake, then readFrame until an
// error. Properties: no panic; the handshake is accepted iff it carries
// Magic and VCurrent, so a bad one is refused before any frame is read, and
// an accepted one consumes exactly its 12 bytes; every frame returned is the body its length prefix
// announces, at most MaxFrameLen, in a buffer no larger than MaxFrameLen; a
// prefix over MaxFrameLen is refused as errFrameTooLarge; the stream ends
// on io.EOF only at a frame boundary. And whatever frames writeFrame
// writes read back byte for byte.
func FuzzReadFrames(f *testing.F) {
	f.Add(encodeConn(f, 2, []byte("prepare"), nil, bytes.Repeat([]byte{0xab}, 300)))
	f.Add(encodeConn(f, 0))
	honest := encodeConn(f, 1, []byte("commit"))
	f.Add(honest[:len(honest)-1]) // truncated body
	f.Add(honest[:14])            // truncated length prefix
	badMagic := append([]byte(nil), honest...)
	badMagic[0] ^= 1
	f.Add(badMagic)
	badVersion := append([]byte(nil), honest...)
	binary.BigEndian.PutUint32(badVersion[4:8], VCurrent+1)
	f.Add(badVersion)
	oversized := encodeConn(f, 3)
	f.Add(binary.BigEndian.AppendUint32(oversized, MaxFrameLen+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		from, err := readHandshake(br)
		validHS := len(data) >= 12 &&
			binary.BigEndian.Uint32(data[0:4]) == Magic &&
			binary.BigEndian.Uint32(data[4:8]) == VCurrent
		switch {
		case validHS && err != nil:
			t.Fatalf("valid handshake rejected: %v", err)
		case !validHS && err == nil:
			t.Fatal("handshake with a bad magic or version accepted")
		case len(data) >= 12 && !validHS && !errors.Is(err, errBadHandshake):
			t.Fatalf("bad handshake reported as %v", err)
		}
		if err == nil && from != NodeID(binary.BigEndian.Uint32(data[8:12])) {
			t.Fatalf("sender %d, handshake names %d", from, binary.BigEndian.Uint32(data[8:12]))
		}
		if err == nil {
			checkFrames(t, br, data[12:])
		}

		// Round trip: frames cut from the input, written by the sender's
		// code, read back by the receiver's.
		frames := splitFrames(data)
		br = bufio.NewReader(bytes.NewReader(encodeConn(t, 7, frames...)))
		if from, err := readHandshake(br); err != nil || from != 7 {
			t.Fatalf("own handshake read back as %d, %v", from, err)
		}
		var buf []byte
		for i, want := range frames {
			if buf, err = readFrame(br, buf); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("frame %d read back as %x, wrote %x", i, buf, want)
			}
		}
		if _, err := readFrame(br, buf); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
}

// checkFrames reads frames from br, which holds rest, and checks each
// against the length prefixes in rest.
func checkFrames(t *testing.T, br *bufio.Reader, rest []byte) {
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		switch {
		case len(rest) == 0:
			if err != io.EOF {
				t.Fatalf("at a frame boundary: %v, want io.EOF", err)
			}
			return
		case len(rest) < 4:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated length prefix: %v", err)
			}
			return
		}
		n := binary.BigEndian.Uint32(rest[:4])
		switch {
		case n > MaxFrameLen:
			if !errors.Is(err, errFrameTooLarge) || frame != nil {
				t.Fatalf("frame of %d bytes: %v, want errFrameTooLarge", n, err)
			}
			return
		case uint64(len(rest)-4) < uint64(n):
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated body: %v", err)
			}
			return
		case err != nil:
			t.Fatalf("whole frame of %d bytes: %v", n, err)
		}
		if !bytes.Equal(frame, rest[4:4+n]) || cap(frame) > MaxFrameLen {
			t.Fatalf("frame of %d bytes read as %d (cap %d)", n, len(frame), cap(frame))
		}
		rest, buf = rest[4+n:], frame
	}
}

// TestReadFrameRefusesBeforeAllocating: a length prefix over MaxFrameLen is
// refused without allocating, so a hostile peer cannot make the reader
// reserve the memory it announces.
func TestReadFrameRefusesBeforeAllocating(t *testing.T) {
	prefix := binary.BigEndian.AppendUint32(nil, 1<<31)
	src := bytes.NewReader(prefix)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(prefix)
		br.Reset(src)
		if _, err := readFrame(br, nil); !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("got %v, want errFrameTooLarge", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("oversized prefix cost %.0f allocations", allocs)
	}
}
