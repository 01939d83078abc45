package ledger

import (
	"bytes"
	"encoding/binary"
	"testing"

	"iaccf/internal/hashsig"
)

// codecCorpus is every seed the two client-RPC decoders start from: the
// encoders' output for requests of each shape and for receipts cut from
// two batches — the second carries a checkpoint marker, so its paths are a
// level longer — plus a truncation and a trailing byte of each.
func codecCorpus(tb testing.TB) (requests, receipts [][]byte) {
	author := hashsig.Sum([]byte("codec-fuzz-client"))
	for _, rq := range []Request{
		{Author: author, ReqNo: 1, Body: EncodeOps([]Op{{Key: "k", Val: []byte("v")}})},
		{Governance: true, Author: author, ReqNo: 2, Body: []byte("action")},
		{Author: author, ReqNo: 3},
	} {
		requests = append(requests, EncodeRequest(nil, &rq))
	}
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2})
	if err != nil {
		tb.Fatal(err)
	}
	reqs := []Request{
		{Author: author, ReqNo: 1, Body: EncodeOps([]Op{{Key: "a", Val: []byte("1")}})},
		{Author: hashsig.Sum([]byte("other")), ReqNo: 1, Body: []byte{0xff}}, // aborts: zero result
		{Author: author, ReqNo: 2, Body: EncodeOps([]Op{{Key: "a", Delete: true}})},
	}
	for range 2 {
		_, rcs, err := l.ExecuteBatch(reqs)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range rcs {
			receipts = append(receipts, EncodeReceipt(nil, &rcs[i]))
		}
	}
	mutate := func(seeds [][]byte) [][]byte {
		for _, s := range seeds {
			seeds = append(seeds, s[:len(s)/2], append(append([]byte(nil), s...), 0))
		}
		return seeds
	}
	return mutate(requests), mutate(receipts)
}

// FuzzDecodeRequest: the submission-RPC request decoder never panics, a
// body it accepts re-encodes to exactly its input — no two byte strings
// decode to one request — and a body whose declared length is over
// MaxRequestLen is refused whatever follows it.
func FuzzDecodeRequest(f *testing.F) {
	requests, _ := codecCorpus(f)
	for _, s := range requests {
		f.Add(s)
	}
	// governance flag ‖ author ‖ request number: the body's length prefix
	// starts here.
	const bodyAt = 4 + hashsig.DigestSize + 8
	over := make([]byte, bodyAt+4)
	binary.BigEndian.PutUint32(over[bodyAt:], MaxRequestLen+1)
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := DecodeRequest(data)
		if len(data) >= bodyAt+4 && binary.BigEndian.Uint32(data[bodyAt:]) > MaxRequestLen && err == nil {
			t.Fatal("a body declared over MaxRequestLen decoded")
		}
		if err != nil {
			return
		}
		if re := EncodeRequest(nil, &rq); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeReceipt: the receipt decoder never panics and a receipt it
// accepts re-encodes to exactly its input.
func FuzzDecodeReceipt(f *testing.F) {
	_, receipts := codecCorpus(f)
	for _, s := range receipts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := DecodeReceipt(data)
		if err != nil {
			if rc != nil {
				t.Fatal("decode returned both a receipt and an error")
			}
			return
		}
		if re := EncodeReceipt(nil, rc); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
