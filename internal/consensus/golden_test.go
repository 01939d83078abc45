package consensus

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

// goldenFrames holds one recorded frame of every message type, written
// before the commit certificate, the signed prepare and the blame evidence
// moved from this package into ledger. Do not regenerate it from the
// current code: the point is that the move did not change a byte. Two
// exceptions were made on purpose: the SyncChunk frame was re-recorded
// when chunks began to carry their offer, and the frames of the retired
// offer and chunk request (tags 7 and 8) were deleted; and every frame
// carrying a batch header or naming its statement was re-recorded when the
// shard partition went (testdata/README.md says what was held equal).
const goldenFrames = "testdata/golden_frames.txt"

// goldenMessages builds the recorded messages from fixed seeds: one of every
// type, the view-change carrying a commit proof and a prepared claim, the
// sync chunk carrying its offer's certificate.
func goldenMessages(t *testing.T) []Message {
	t.Helper()
	key := hashsig.GenerateKeyFromSeed("golden-frames")
	led, err := ledger.New(ledger.Config{Key: key, App: ledger.KVApp{}, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	nonce := hashsig.NonceFromSeed("golden-nonce")
	backup := hashsig.NonceFromSeed("golden-backup")
	batch, err := led.ExecuteBatchAs(ledger.Envelope{View: 1, Primary: 1, NonceCommit: nonce.Commit()}, []ledger.Request{{
		Author: hashsig.Sum([]byte("golden-client")),
		ReqNo:  7,
		Body:   ledger.EncodeOps([]ledger.Op{{Key: "k", Val: []byte("v")}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	pp := &PrePrepare{Header: batch.Header, Entries: batch.Entries}
	prep := &Prepare{ledger.Prepare{Replica: 2, Header: batch.Header, NonceCommit: backup.Commit()}}
	prep.Sig = key.MustSign(prep.SigningDigest())
	cert := &ledger.CommitCert{
		Header:   batch.Header,
		Prepares: []ledger.Prepare{prep.Prepare},
		Opens:    []ledger.NonceOpen{{Replica: 1, Nonce: nonce}, {Replica: 2, Nonce: backup}},
	}
	vc := &ViewChange{
		NewView: 2, Replica: 3, CommittedSeq: 1, CommitProof: cert,
		Prepared: []PreparedProof{{PP: *pp, Prepares: []ledger.Prepare{prep.Prepare}}},
	}
	vc.Sig = key.MustSign(vc.SigningDigest())
	nv := &NewView{View: 2, Replica: 2, VCs: []ViewChange{*vc}}
	nv.Sig = key.MustSign(nv.SigningDigest())
	return []Message{
		pp,
		prep,
		&Commit{View: 1, Replica: 2, Seq: 1, Statement: batch.Header.StatementDigest(), Nonce: backup},
		vc,
		nv,
		&SyncRequest{Replica: 3, HaveSeq: 4},
		&SyncChunk{
			Replica: 1, Requester: 3, CkptSeq: 1,
			Frontier: []byte("frontier"),
			Cert:     cert,
			Kind:     SyncChunkState, Index: 0, Data: []byte("chunk"),
		},
	}
}

// readGoldenFrames returns the recorded frames in file order; each line is
// a message type name and the frame in hex.
func readGoldenFrames(t *testing.T) [][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		_, h, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	return frames
}

// TestGoldenFrames: every message type encodes to the recorded bytes, and
// the recorded bytes decode and re-encode to themselves.
func TestGoldenFrames(t *testing.T) {
	msgs := goldenMessages(t)
	frames := readGoldenFrames(t)
	if len(frames) != len(msgs) {
		t.Fatalf("%d recorded frames, %d messages", len(frames), len(msgs))
	}
	for i, m := range msgs {
		if got := EncodeMessage(m); string(got) != string(frames[i]) {
			t.Fatalf("%T encodes as\n %x\nrecorded\n %x", m, got, frames[i])
		}
		dec, err := DecodeMessage(frames[i])
		if err != nil {
			t.Fatalf("recorded %T does not decode: %v", m, err)
		}
		if string(EncodeMessage(dec)) != string(frames[i]) {
			t.Fatalf("recorded %T does not re-encode to itself", m)
		}
	}
}

// TestGoldenFramesMalformedCert: a sync chunk whose offer's certificate is
// cut short or announces more prepares or openings than the decoder accepts
// is ErrBadMessage, wherever the certificate decoder lives.
// TestNewViewDigestAllocatesNothing: a new-view's signing digest streams
// through a SHA-256 state on the stack, and each carried view-change
// assembles its own preimage — prepared statements included — in a stack
// array.
func TestNewViewDigestAllocatesNothing(t *testing.T) {
	var nv *NewView
	for _, m := range goldenMessages(t) {
		if m, ok := m.(*NewView); ok {
			nv = m
		}
	}
	if len(nv.VCs[0].Prepared) == 0 {
		t.Fatal("the golden view-change carries no prepared claim")
	}
	if got := testing.AllocsPerRun(100, func() { nv.SigningDigest() }); got != 0 {
		t.Fatalf("NewView.SigningDigest: %.1f allocations per call, want 0", got)
	}
}

func TestGoldenFramesMalformedCert(t *testing.T) {
	chunk := readGoldenFrames(t)[6]
	// Tag, replica, requester, ckpt seq, the frontier, then the
	// certificate: its header, then the prepare count.
	w := wire.NewAppendWriter(nil)
	goldenMessages(t)[0].(*PrePrepare).Header.EncodeTo(w)
	certAt := 4 + 4 + 4 + 8 + 4 + len("frontier")
	prepCount := certAt + len(w.AppendedBytes())
	if n := binary.BigEndian.Uint32(chunk[prepCount:]); n != 1 {
		t.Fatalf("prepare count at offset %d reads %d, want 1", prepCount, n)
	}
	tooMany := append([]byte(nil), chunk...)
	binary.BigEndian.PutUint32(tooMany[prepCount:], 1<<20)
	// The certificate ends with the openings; kind, index and data follow.
	certEnd := len(chunk) - (4 + 8 + 4 + len("chunk"))
	opensCount := certEnd - 2*(4+hashsig.NonceSize) - 4
	if n := binary.BigEndian.Uint32(chunk[opensCount:]); n != 2 {
		t.Fatalf("opening count at offset %d reads %d, want 2", opensCount, n)
	}
	manyOpens := append([]byte(nil), chunk...)
	binary.BigEndian.PutUint32(manyOpens[opensCount:], 1<<20)
	for name, b := range map[string][]byte{
		"too many prepares":          tooMany,
		"too many openings":          manyOpens,
		"cut inside the certificate": chunk[:certEnd-1],
		"truncated":                  chunk[:len(chunk)-1],
		"trailing":                   append(append([]byte(nil), chunk...), 0),
	} {
		if _, err := DecodeMessage(b); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: %v, want ErrBadMessage", name, err)
		}
	}
}

// TestRetiredTagsDoNotDecode: tags 7 and 8 belonged to the pulled offer and
// chunk request. A frame under either tag is ErrBadMessage, whatever body it
// carries — here a well-formed sync chunk's.
func TestRetiredTagsDoNotDecode(t *testing.T) {
	chunk := readGoldenFrames(t)[6]
	for _, tag := range []uint32{7, 8} {
		frame := binary.BigEndian.AppendUint32(nil, tag)
		frame = append(frame, chunk[4:]...)
		if m, err := DecodeMessage(frame); !errors.Is(err, ErrBadMessage) || m != nil {
			t.Fatalf("retired tag %d decodes: %T, %v", tag, m, err)
		}
	}
}
