package ledger

import (
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// ErrBadReceipt reports a malformed receipt on decode.
var ErrBadReceipt = fmt.Errorf("ledger: malformed receipt")

// maxReceiptPath bounds the audit path accepted on decode: 64 levels, the
// depth of a tree of as many leaves as a uint64 GSize can count, so no
// receipt whose path is longer can verify, and a hostile frame cannot
// allocate unbounded digests.
const maxReceiptPath = 64

// MaxReceiptLen is the longest encoding EncodeReceipt gives a receipt
// ExecuteBatch can cut: a transaction entry carrying a MaxRequestLen body,
// under a maxReceiptPath-digest audit path. A reader of receipts (the
// client RPC's response frame) caps at it without knowing the layout.
const MaxReceiptLen = 4*8 + 4 + 4*hashsig.DigestSize + // header: signed fields
	4 + hashsig.SignatureSize + // the signature, length-prefixed
	4 + 1 + hashsig.DigestSize + 8 + 4 + MaxRequestLen + hashsig.DigestSize + // the entry, length-prefixed
	8 + // index
	4 + maxReceiptPath*hashsig.DigestSize // the path, count-prefixed

// EncodeReceipt appends the wire encoding of the receipt to dst: the
// signed header (envelope, content, signature), the entry, its index in
// the batch, and the audit path.
// Receipts cross the client submission RPC, so the encoding is versioned
// by the enclosing transport frame, not here.
func EncodeReceipt(dst []byte, rc *Receipt) []byte {
	w := wire.NewAppendWriter(dst)
	rc.Header.EncodeTo(w)
	w.Bytes(rc.Entry.Encode(nil))
	w.Uint64(rc.Index)
	w.Uint32(uint32(len(rc.Path)))
	for _, d := range rc.Path {
		w.Digest(d)
	}
	return w.AppendedBytes()
}

// DecodeReceipt parses the encoding produced by EncodeReceipt. The result
// shares no memory with b. Decoding validates shape only; cryptographic
// validity is the caller's Verify call.
func DecodeReceipt(b []byte) (*Receipt, error) {
	r := wire.NewBytesReader(b)
	rc := &Receipt{Header: DecodeHeader(r)}
	eb := r.Bytes(wire.MaxValueLen)
	if r.Err() == nil {
		e, err := DecodeEntry(eb)
		if err != nil {
			r.Fail(err)
		}
		rc.Entry = e
	}
	rc.Index = r.Uint64()
	rc.Path = wire.ReadList(r, maxReceiptPath, "path digests", (*wire.Reader).Digest)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReceipt, err)
	}
	return rc, nil
}

// EncodeRequest appends the wire encoding of a client request to dst. This
// is the submission-RPC body: what a client signs up to having recorded on
// the ledger as ⟨t,i⟩.
func EncodeRequest(dst []byte, rq *Request) []byte {
	gov := uint32(0)
	if rq.Governance {
		gov = 1
	}
	dst = wire.AppendUint32(dst, gov)
	dst = wire.AppendDigest(dst, rq.Author)
	dst = wire.AppendUint64(dst, rq.ReqNo)
	return wire.AppendBytes(dst, rq.Body)
}

// DecodeRequest parses the encoding produced by EncodeRequest, enforcing
// the ingress body cap MaxRequestLen so an oversized submission is rejected
// at the frame boundary, before it can reach the pool or the ledger. The
// result shares no memory with b. Failures wrap ErrBadRequest.
func DecodeRequest(b []byte) (Request, error) {
	r := wire.NewBytesReader(b)
	var rq Request
	switch gov := r.Uint32(); gov {
	case 0:
	case 1:
		rq.Governance = true
	default:
		return Request{}, fmt.Errorf("%w: governance flag %d", ErrBadRequest, gov)
	}
	rq.Author = r.Digest()
	rq.ReqNo = r.Uint64()
	rq.Body = r.Bytes(MaxRequestLen)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return rq, nil
}
