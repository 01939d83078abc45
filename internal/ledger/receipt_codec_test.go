package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// TestReceiptCodecRoundTrip encodes real receipts — produced by executing a
// batch, so the index, path and header signature are genuine —
// decodes them, and demands the decoded receipt still verifies offline and
// re-encodes byte-identically.
func TestReceiptCodecRoundTrip(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("receipt-codec")
	led, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	author := hashsig.Sum([]byte("client"))
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{
			Author: author,
			ReqNo:  uint64(i + 1),
			Body:   EncodeOps([]Op{{Key: string([]byte{'k', byte(i)}), Val: []byte("v")}}),
		})
	}
	_, rcs, err := led.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcs) == 0 {
		t.Fatal("no receipts produced")
	}
	pub := key.Public()
	for i := range rcs {
		enc := EncodeReceipt(nil, &rcs[i])
		dec, err := DecodeReceipt(enc)
		if err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		if !dec.Verify(pub) {
			t.Fatalf("receipt %d no longer verifies after round trip", i)
		}
		if re := EncodeReceipt(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("receipt %d re-encode differs", i)
		}
	}
	// The decoded receipt must not alias the input frame.
	enc := EncodeReceipt(nil, &rcs[0])
	dec, err := DecodeReceipt(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	if !dec.Verify(pub) {
		t.Fatal("decoded receipt aliases the input frame")
	}
}

// TestMaxReceiptLen: the longest receipt — a MaxRequestLen transaction
// body, a full signature, maxReceiptPath (64) path digests, the depth of a
// tree of uint64 size — encodes to exactly MaxReceiptLen bytes and
// decodes; one digest more is refused on decode.
func TestMaxReceiptLen(t *testing.T) {
	if maxReceiptPath != 64 {
		t.Fatalf("maxReceiptPath is %d, want 64: a GSize-leaf tree is at most 64 levels deep", maxReceiptPath)
	}
	rc := &Receipt{
		Header: BatchHeader{Sig: make(hashsig.Signature, hashsig.SignatureSize)},
		Entry:  Entry{Kind: KindTransaction, Payload: make([]byte, MaxRequestLen)},
		Path:   make([]hashsig.Digest, maxReceiptPath),
	}
	enc := EncodeReceipt(nil, rc)
	if len(enc) != MaxReceiptLen {
		t.Fatalf("the longest receipt encodes to %d bytes, MaxReceiptLen is %d", len(enc), MaxReceiptLen)
	}
	if _, err := DecodeReceipt(enc); err != nil {
		t.Fatal(err)
	}
	rc.Path = append(rc.Path, hashsig.Digest{})
	if _, err := DecodeReceipt(EncodeReceipt(nil, rc)); !errors.Is(err, ErrBadReceipt) {
		t.Fatalf("a receipt with a %d-digest path: %v, want ErrBadReceipt", len(rc.Path), err)
	}
}

// TestReceiptCodecEnvelope: the receipt codec carries the statement's
// envelope — a receipt cut under consensus proves view, primary and nonce
// commitment — and altering any envelope field in a serialized receipt,
// signature kept, fails Verify whether or not the honest header's check is
// resident in verifiedHeaders.
func TestReceiptCodecEnvelope(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("receipt-codec-envelope")
	pub := key.Public()
	led, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	alter := []struct {
		field string
		mut   func(*Receipt)
	}{
		{"View", func(x *Receipt) { x.Header.View ^= 1 }},
		{"Primary", func(x *Receipt) { x.Header.Primary ^= 1 }},
		{"NonceCommit", func(x *Receipt) { x.Header.NonceCommit[31] ^= 1 }},
	}
	for _, warm := range []bool{false, true} {
		env := Envelope{View: 7, Primary: 3, NonceCommit: hashsig.NonceFromSeed(fmt.Sprint("codec", warm)).Commit()}
		b, err := led.ExecuteBatchAs(fixed(env), []Request{{
			Author: hashsig.Sum([]byte("client")), ReqNo: 1, Body: EncodeOps([]Op{{Key: "k", Val: []byte("v")}}),
		}})
		if err != nil {
			t.Fatal(err)
		}
		enc := EncodeReceipt(nil, &led.Receipts(b.Header.Seq)[0])
		dec, err := DecodeReceipt(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Header.Envelope != env {
			t.Fatalf("envelope changed across the codec: %+v vs %+v", dec.Header.Envelope, env)
		}
		if re := EncodeReceipt(nil, dec); !bytes.Equal(re, enc) {
			t.Fatal("re-encode differs")
		}
		if warm && !dec.Verify(pub) {
			t.Fatal("honest receipt does not verify")
		}
		if got := headerResident(&dec.Header, pub); got != warm {
			t.Fatalf("honest header resident = %v, want %v", got, warm)
		}
		for _, a := range alter {
			x, err := DecodeReceipt(enc)
			if err != nil {
				t.Fatal(err)
			}
			a.mut(x)
			forged, err := DecodeReceipt(EncodeReceipt(nil, x))
			if err != nil {
				t.Fatal(err)
			}
			if forged.Verify(pub) {
				t.Errorf("warm=%v: receipt with altered %s and the signature kept verifies", warm, a.field)
			}
		}
		if !dec.Verify(pub) {
			t.Fatal("honest receipt does not verify after the forgeries")
		}
	}
}

// TestReceiptCodecRejects exercises the decode guards: truncation, trailing
// garbage, and an oversized path count must all fail cleanly.
func TestReceiptCodecRejects(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("receipt-codec-bad")
	led, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	author := hashsig.Sum([]byte("client"))
	_, rcs, err := led.ExecuteBatch([]Request{{
		Author: author, ReqNo: 1, Body: EncodeOps([]Op{{Key: "k", Val: []byte("v")}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeReceipt(nil, &rcs[0])

	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeReceipt(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeReceipt(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}

	// The signature field is capped at the scheme's size: one byte over is
	// corrupt at decode — in a bare header, a receipt and a batch stream —
	// while one byte under decodes and simply fails Verify.
	long, short := rcs[0], rcs[0]
	long.Header.Sig = append(long.Header.Sig.Clone(), 0)
	short.Header.Sig = short.Header.Sig[:hashsig.SignatureSize-1]
	w := wire.NewAppendWriter(nil)
	long.Header.EncodeTo(w)
	r := wire.NewBytesReader(w.AppendedBytes())
	if DecodeHeader(r); !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Fatalf("header with a %d-byte signature: %v, want wire.ErrCorrupt", len(long.Header.Sig), r.Err())
	}
	if _, err := DecodeReceipt(EncodeReceipt(nil, &long)); !errors.Is(err, ErrBadReceipt) {
		t.Fatalf("receipt with a %d-byte signature: %v, want ErrBadReceipt", len(long.Header.Sig), err)
	}
	var stream bytes.Buffer
	if err := WriteBatches(&stream, []*Batch{{Header: long.Header, Entries: led.Batches()[0].Entries}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBatches(&stream); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("stream with a %d-byte signature: %v, want ErrBadBatch", len(long.Header.Sig), err)
	}
	got, err := DecodeReceipt(EncodeReceipt(nil, &short))
	if err != nil {
		t.Fatalf("receipt with a %d-byte signature does not decode: %v", len(short.Header.Sig), err)
	}
	if got.Verify(key.Public()) {
		t.Fatal("receipt with a truncated signature verified")
	}
}

// TestRequestCodecRoundTrip round-trips submission-RPC request bodies and
// checks the ingress cap: a body over MaxRequestLen must be rejected at
// decode, before any pool or ledger sees it.
func TestRequestCodecRoundTrip(t *testing.T) {
	author := hashsig.Sum([]byte("req-client"))
	for _, rq := range []Request{
		{Author: author, ReqNo: 1, Body: []byte("put")},
		{Governance: true, Author: author, ReqNo: 9, Body: []byte("action")},
		{Author: author, ReqNo: 2, Body: nil},
	} {
		enc := EncodeRequest(nil, &rq)
		dec, err := DecodeRequest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Governance != rq.Governance || dec.Author != rq.Author ||
			dec.ReqNo != rq.ReqNo || !bytes.Equal(dec.Body, rq.Body) {
			t.Fatalf("round trip mutated request: %+v vs %+v", dec, rq)
		}
		if re := EncodeRequest(nil, &dec); !bytes.Equal(re, enc) {
			t.Fatal("re-encode differs")
		}
	}
	big := Request{Author: author, ReqNo: 3, Body: make([]byte, MaxRequestLen+1)}
	if _, err := DecodeRequest(EncodeRequest(nil, &big)); err == nil {
		t.Fatal("oversized body accepted")
	}
	if _, err := DecodeRequest([]byte{2, 0, 0, 0}); err == nil {
		t.Fatal("bad governance flag accepted")
	}
}
