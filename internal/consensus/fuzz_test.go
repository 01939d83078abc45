package consensus

import (
	"bytes"

	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// messageCorpus builds one valid frame of every message type plus mutated
// variants. The seeds run under plain `go test` too, making this a
// decoder regression table even when fuzzing is off.
func messageCorpus() [][]byte {
	key := hashsig.GenerateKeyFromSeed("fuzz-corpus")
	led, err := ledger.New(ledger.Config{Key: key, App: ledger.KVApp{}})
	if err != nil {
		panic(err)
	}
	nonce := hashsig.NonceFromSeed("fuzz-nonce")
	env := ledger.Envelope{View: 1, Primary: 1, NonceCommit: nonce.Commit()}
	rq := ledger.Request{
		Author: hashsig.Sum([]byte("client")),
		ReqNo:  1,
		Body:   ledger.EncodeOps([]ledger.Op{{Key: "k", Val: []byte("v")}}),
	}
	batch, err := led.ExecuteBatchAs(fixed(env), []ledger.Request{rq})
	if err != nil {
		panic(err)
	}
	pp := &PrePrepare{Header: batch.Header, Entries: batch.Entries}
	prep := &Prepare{ledger.Prepare{Replica: 2, Header: batch.Header, NonceCommit: nonce.Commit()}}
	prep.Sig = key.MustSign(prep.SigningDigest())
	cm := &Commit{View: 1, Replica: 2, Seq: 1, Statement: batch.Header.StatementDigest(), Nonce: nonce}
	vc := &ViewChange{
		NewView: 2, Replica: 3, CommittedSeq: 1,
		CommitProof: &ledger.CommitCert{Header: batch.Header, Prepares: []ledger.Prepare{prep.Prepare}, Opens: []ledger.NonceOpen{{Replica: 2, Nonce: nonce}}},
		Prepared:    []PreparedProof{{PP: *pp, Prepares: []ledger.Prepare{prep.Prepare}}},
	}
	vc.Sig = key.MustSign(vc.SigningDigest())
	nv := &NewView{View: 2, Replica: 2, VCs: []ViewChange{*vc}}
	nv.Sig = key.MustSign(nv.SigningDigest())
	ask := &SyncRequest{Replica: 3, HaveSeq: 1}
	chunk := &SyncChunk{
		Replica: 1, Requester: 3, CkptSeq: 0, Cert: vc.CommitProof,
		Kind: SyncChunkBatch, Index: 0, Data: encodeBatchChunk(batch),
	}

	var out [][]byte
	fw := &Forward{Request: rq}
	for _, m := range []Message{pp, prep, cm, vc, nv, ask, chunk, fw} {
		frame := EncodeMessage(m)
		out = append(out, frame)
		out = append(out, frame[:len(frame)/2])
		mutated := append([]byte(nil), frame...)
		mutated[4] ^= 0xff
		out = append(out, mutated)
	}
	// Then the empty frame, tag 0, a truncated chunk, and the retired tags 7
	// and 8 over a chunk's body.
	out = append(out, nil, []byte{0, 0, 0, 0}, []byte{0, 0, 0, 9, 1, 2, 3})
	body := EncodeMessage(chunk)[4:]
	out = append(out, append([]byte{0, 0, 0, 7}, body...), append([]byte{0, 0, 0, 8}, body...))
	return out
}

// FuzzDecodeMessage: no input may panic the consensus decoders, and
// anything that decodes must re-encode canonically to the identical frame.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range messageCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			if m != nil {
				t.Fatal("decode returned both a message and an error")
			}
			return
		}
		re := EncodeMessage(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
		if _, err := DecodeMessage(re); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

// TestMessageCorpusDecodes pins the corpus expectations explicitly: intact
// frames decode, truncations and retired tags error, and nothing panics.
func TestMessageCorpusDecodes(t *testing.T) {
	corpus := messageCorpus()
	const types = 8 // one intact frame and two mutants of each, first
	for i, frame := range corpus {
		m, err := DecodeMessage(frame)
		if i >= len(corpus)-2 { // the retired tags
			if err == nil {
				t.Fatalf("frame %d: retired tag %d decoded", i, frame[3])
			}
			continue
		}
		if i%3 == 0 && i < 3*types { // the intact frames
			if err != nil {
				t.Fatalf("frame %d: valid message rejected: %v", i, err)
			}
			if !bytes.Equal(EncodeMessage(m), frame) {
				t.Fatalf("frame %d: not canonical", i)
			}
			continue
		}
		// Mutants may or may not decode; the requirement is no panic and
		// canonical round-trip when they do.
		if err == nil && !bytes.Equal(EncodeMessage(m), frame) {
			t.Fatalf("frame %d (%T): mutant decoded non-canonically", i, m)
		}
	}
}

func TestFuzzCorpusCoversAllTypes(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, frame := range messageCorpus() {
		if m, err := DecodeMessage(frame); err == nil {
			seen[m.Type()] = true
		}
	}
	for _, want := range []MsgType{MsgPrePrepare, MsgPrepare, MsgCommit, MsgViewChange, MsgNewView, MsgSyncRequest, MsgSyncChunk, MsgForward} {
		if !seen[want] {
			t.Fatalf("corpus has no valid frame of type %d", want)
		}
	}
}
