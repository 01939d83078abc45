// Fixture for the viewretain analyzer: BytesView aliases the input frame,
// so retention sinks fire while the decode-scope idioms from the real
// consensus/ledger decoders stay silent.
package viewretainfix

import (
	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

type msg struct {
	payload []byte
	digest  hashsig.Digest
}

// --- violations ---

func decodeRetains(r *wire.Reader) *msg {
	m := &msg{}
	v := r.BytesView(1024)
	m.payload = v // want `frame view from wire\.Reader\.BytesView is stored into field payload`
	return m
}

func decodeReturnsView(r *wire.Reader) []byte {
	return r.BytesView(64) // want `frame view from wire\.Reader\.BytesView is returned`
}

func decodeSendsView(r *wire.Reader, ch chan []byte) {
	v := r.BytesView(64)
	ch <- v // want `sent on a channel`
}

func decodeReturnsAlias(r *wire.Reader) []byte {
	v := r.BytesView(64)
	w := v[:16]
	return w // want `frame view from wire\.Reader\.BytesView is returned`
}

var global []byte

func decodeStoresGlobal(r *wire.Reader) {
	v := r.BytesView(64)
	global = v // want `stored into package-level variable global`
}

func decodeGoroutineArg(r *wire.Reader, sink func([]byte)) {
	v := r.BytesView(64)
	go sink(v) // want `passed to a goroutine`
}

func decodeGoroutineCapture(r *wire.Reader) {
	v := r.BytesView(64)
	go func() {
		_ = v[0] // want `captured by a goroutine`
	}()
}

// --- sanctioned idioms (must not fire) ---

// Hashing or verifying the view inside the decode scope is the point of
// BytesView; calls are trusted boundaries.
func decodeHashes(r *wire.Reader) hashsig.Digest {
	v := r.BytesView(1024)
	return hashsig.Sum(v)
}

// Copy-then-retain is the documented escape hatch.
func decodeCopies(r *wire.Reader) *msg {
	m := &msg{}
	v := r.BytesView(1024)
	m.payload = append([]byte(nil), v...)
	m.digest = hashsig.Sum(v)
	return m
}

// Reader.Bytes copies; retaining its result is the sanctioned API.
func decodeBytes(r *wire.Reader) []byte {
	return r.Bytes(1024)
}

// string(view) copies.
func decodeString(r *wire.Reader) string {
	v := r.BytesView(64)
	return string(v)
}

// Views held in a local container that never escapes the function
// (the ledger exec-scope ops pattern).
func decodeLocalOps(r *wire.Reader) int {
	type op struct{ val []byte }
	var ops []op
	for i := 0; i < 4; i++ {
		ops = append(ops, op{val: r.BytesView(16)})
	}
	n := 0
	for _, o := range ops {
		n += len(o.val)
	}
	return n
}
