package ledger

import (
	"errors"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/wire"
)

// Kind discriminates ledger entry types (paper Fig. 3).
type Kind uint8

const (
	// KindTransaction is an executed client transaction ⟨t,i,o⟩.
	KindTransaction Kind = 1
	// KindGovernance is a member governance action recorded on the ledger
	// so that configuration history is itself auditable (paper §4).
	KindGovernance Kind = 2
	// KindCheckpoint marks a state checkpoint: it pins the service state
	// digest d_C at a batch boundary (paper §3.4).
	KindCheckpoint Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindTransaction:
		return "transaction"
	case KindGovernance:
		return "governance"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrBadEntry reports a malformed entry on decode.
var ErrBadEntry = errors.New("ledger: malformed entry")

// Entry is one typed ledger entry. Field use depends on Kind:
//
//   - KindTransaction: Author is the client key ID, ReqNo the client's
//     request number i, Payload the request t, Result the write-set digest
//     o (zero if execution failed and the transaction was recorded as
//     aborted).
//   - KindGovernance: Author is the member key ID, Payload the proposed
//     action; no state effect.
//   - KindCheckpoint: Seq is the batch that took the checkpoint and State
//     the service state digest d_C at that point.
type Entry struct {
	Kind    Kind
	Author  hashsig.Digest
	ReqNo   uint64
	Payload []byte
	Result  hashsig.Digest
	Seq     uint64
	State   hashsig.Digest
}

// entryDomain domain-separates entry digests from every other hash use.
var entryDomain = []byte("iaccf-ledger-entry:")

// Encode appends the deterministic wire encoding of the entry to dst.
func (e *Entry) Encode(dst []byte) []byte {
	dst = append(dst, byte(e.Kind))
	switch e.Kind {
	case KindTransaction:
		dst = wire.AppendDigest(dst, e.Author)
		dst = wire.AppendUint64(dst, e.ReqNo)
		dst = wire.AppendBytes(dst, e.Payload)
		dst = wire.AppendDigest(dst, e.Result)
	case KindGovernance:
		dst = wire.AppendDigest(dst, e.Author)
		dst = wire.AppendBytes(dst, e.Payload)
	case KindCheckpoint:
		dst = wire.AppendUint64(dst, e.Seq)
		dst = wire.AppendDigest(dst, e.State)
	}
	return dst
}

// Digest returns the entry's leaf digest: what M and G commit to. The
// encoding is assembled on the stack — this runs once per entry per
// replica on the commit path and must not allocate per call; only an
// entry too large for the array spills to the heap.
func (e *Entry) Digest() hashsig.Digest {
	var buf [256]byte
	return hashsig.Sum(e.Encode(append(buf[:0], entryDomain...)))
}

// encodedLen is len(e.Encode(nil)), without encoding.
func (e *Entry) encodedLen() int {
	switch e.Kind {
	case KindTransaction:
		return 1 + 2*hashsig.DigestSize + 8 + 4 + len(e.Payload)
	case KindGovernance:
		return 1 + hashsig.DigestSize + 4 + len(e.Payload)
	}
	return 1 + 8 + hashsig.DigestSize
}

// decodeEntry reads one entry in the length-prefixed form Batch.EncodeTo
// and EncodeReceipt write it in. The fields are decoded straight from r and
// must fill exactly the prefix, itself at most wire.MaxValueLen; the
// payload, the one variable field, is an owned copy bounded by the prefix.
// Errors stick to r, and a failed decode returns the zero Entry.
func decodeEntry(r *wire.Reader) Entry {
	n := r.Uint32()
	if r.Err() == nil && n > wire.MaxValueLen {
		r.Fail(fmt.Errorf("%w: %d-byte entry exceeds limit %d", ErrBadEntry, n, wire.MaxValueLen))
	}
	e := Entry{Kind: Kind(r.Byte())}
	switch e.Kind {
	case KindTransaction:
		e.Author = r.Digest()
		e.ReqNo = r.Uint64()
		e.Payload = r.Bytes(n)
		e.Result = r.Digest()
	case KindGovernance:
		e.Author = r.Digest()
		e.Payload = r.Bytes(n)
	case KindCheckpoint:
		e.Seq = r.Uint64()
		e.State = r.Digest()
	default:
		r.Fail(fmt.Errorf("%w: unknown kind %d", ErrBadEntry, e.Kind))
	}
	if r.Err() == nil && e.encodedLen() != int(n) {
		r.Fail(fmt.Errorf("%w: %d bytes of fields under a %d-byte prefix", ErrBadEntry, e.encodedLen(), n))
	}
	if r.Err() != nil {
		return Entry{}
	}
	return e
}
