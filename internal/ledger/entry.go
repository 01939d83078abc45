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

// decodeEntry reads one length-prefixed entry from a wire.Reader. View, not
// copy: DecodeEntry itself copies everything an Entry retains (Payload), so
// the frame slice is only read within this call and one copy per entry is
// saved in bytes mode.
func decodeEntry(r *wire.Reader) Entry {
	b := r.BytesView(wire.MaxValueLen)
	if r.Err() != nil {
		return Entry{}
	}
	e, err := DecodeEntry(b)
	if err != nil {
		r.Fail(err)
		return Entry{}
	}
	return e
}

// DecodeEntry parses the encoding produced by Encode.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) == 0 {
		return Entry{}, fmt.Errorf("%w: empty", ErrBadEntry)
	}
	e := Entry{Kind: Kind(b[0])}
	r := wire.NewBytesReader(b[1:])
	switch e.Kind {
	case KindTransaction:
		e.Author = r.Digest()
		e.ReqNo = r.Uint64()
		e.Payload = r.Bytes(wire.MaxValueLen)
		e.Result = r.Digest()
	case KindGovernance:
		e.Author = r.Digest()
		e.Payload = r.Bytes(wire.MaxValueLen)
	case KindCheckpoint:
		e.Seq = r.Uint64()
		e.State = r.Digest()
	default:
		return Entry{}, fmt.Errorf("%w: unknown kind %d", ErrBadEntry, b[0])
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrBadEntry, err)
	}
	return e, nil
}
