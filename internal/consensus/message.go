// Package consensus implements the L-PBFT core of IA-CCF (paper §3): the
// pre-prepare / prepare / commit / view-change message flow, with
// nonce-commitment openings replacing commit-phase signatures (Appx. A
// Lemma 3) and view changes that roll replicas back to the last committed
// batch boundary (Lemma 1).
//
// A replica signs once per batch. The primary's statement is the signed
// ledger.BatchHeader itself — view, primary, nonce commitment and content
// under one signature — so a pre-prepare is a ledger.Batch and there is no
// separate proposal object. A backup's statement is its ledger.Prepare,
// which signs (its identity, the header's StatementDigest, its own nonce
// commitment). Commits are unsigned openings. The signed statements and the
// evidence built from them (ledger.CommitCert, ledger.Blame) are ledger
// data, checkable without this package; it holds the behaviour that
// produces them and the message envelopes that carry them.
//
// Two questions are kept apart throughout (see the ledger package doc):
// "same batch?" compares BatchHeader.ContentDigest — re-proposal pins, the
// prepared chain a new view inherits, the catch-up anchor; "same
// pre-prepare?" compares BatchHeader.StatementDigest — prepares, commits,
// certificates, the verified-signature set.
//
// Every statement binds the signer's index and the view, so a primary that
// signs two statements with different content for the same (view, seq) has
// produced self-contained blame evidence (see ledger.Blame) naming its key —
// the individual accountability the paper is built around.
package consensus

import (
	"errors"
	"fmt"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

// ReplicaID indexes a replica within the current configuration.
type ReplicaID = ledger.ReplicaID

// MsgType tags the consensus message frames on the wire.
type MsgType uint8

const (
	// MsgPrePrepare carries the primary's signed header plus the batch
	// entries.
	MsgPrePrepare MsgType = 1
	// MsgPrepare is a backup's signed agreement to a pre-prepare, carrying
	// the signed header itself so conflicting primary signatures
	// cross-pollinate into blame evidence.
	MsgPrepare MsgType = 2
	// MsgCommit reveals the sender's nonce preimage; opening the commitment
	// announced in its pre-prepare/prepare authenticates the message without
	// a second signature (Lemma 3), so commits are unsigned.
	MsgCommit MsgType = 3
	// MsgViewChange asks to move to a new view, carrying the sender's
	// committed sequence number and its prepared-but-uncommitted batches.
	MsgViewChange MsgType = 4
	// MsgNewView is the new primary's quorum view-change certificate.
	MsgNewView MsgType = 5
	// MsgSyncRequest is a laggard's ask, to one peer: push what you
	// committed past my watermark.
	MsgSyncRequest MsgType = 6
	// Tags 7 and 8 carried the pulled offer and chunk request of an earlier
	// catch-up protocol. They are retired, never reused: DecodeMessage
	// refuses them.

	// MsgSyncChunk carries one chunk of a pushed transfer — the
	// checkpoint's state, or one committed batch of the suffix above the
	// offer's start — together with the offer itself.
	MsgSyncChunk MsgType = 9
	// MsgForward relays a client request from the replica the client
	// reached to its peers; the node runtime handles it.
	MsgForward MsgType = 10
)

// ErrBadMessage reports a malformed consensus message on decode.
var ErrBadMessage = errors.New("consensus: malformed message")

// maxViewChanges bounds the view-change certificate size accepted on
// decode; any real certificate holds at most n entries.
const maxViewChanges = 1 << 10

// Message is one L-PBFT protocol message.
type Message interface {
	Type() MsgType
	encodeBody(w *wire.Writer)
}

// Domain separators for the view-change signatures, so no message can be
// replayed as another kind. (The pre-prepare's and the prepare's are in
// package ledger, with the statements they sign.)
var (
	viewChangeDomain = []byte("iaccf-viewchange:")
	newViewDomain    = []byte("iaccf-newview:")
)

// PrePrepare is the primary's proposal: the signed header — the statement,
// carrying the primary's one signature for the batch — plus the entries
// backups re-execute (ledger.ApplyBatch). On the wire it is a ledger.Batch.
type PrePrepare struct {
	Header  ledger.BatchHeader
	Entries []ledger.Entry
}

// Type implements Message.
func (m *PrePrepare) Type() MsgType { return MsgPrePrepare }

// Batch reassembles the proposed batch from the header and entries.
func (m *PrePrepare) Batch() *ledger.Batch {
	return &ledger.Batch{Header: m.Header, Entries: m.Entries}
}

func (m *PrePrepare) encodeBody(w *wire.Writer) { m.Batch().EncodeTo(w) }

func decodePrePrepare(r *wire.Reader) *PrePrepare {
	b := ledger.DecodeBatch(r)
	return &PrePrepare{Header: b.Header, Entries: b.Entries}
}

// Prepare is a backup's signed prepare statement (ledger.Prepare) sent as
// a message.
type Prepare struct{ ledger.Prepare }

// Type implements Message.
func (m *Prepare) Type() MsgType { return MsgPrepare }

func (m *Prepare) encodeBody(w *wire.Writer) { m.EncodeTo(w) }

// Commit reveals the sender's nonce preimage for one instance. It carries
// no signature: only the replica that committed to H(n) in its
// pre-prepare or prepare can produce n, so the opening itself authenticates
// the message (Lemma 3). Statement pins which pre-prepare the nonce was
// committed for.
type Commit struct {
	View      uint64
	Replica   ReplicaID
	Seq       uint64
	Statement hashsig.Digest // BatchHeader.StatementDigest of the pre-prepare
	Nonce     hashsig.Nonce
}

// Type implements Message.
func (m *Commit) Type() MsgType { return MsgCommit }

func (m *Commit) encodeBody(w *wire.Writer) {
	w.Uint64(m.View)
	w.Uint32(uint32(m.Replica))
	w.Uint64(m.Seq)
	w.Digest(m.Statement)
	w.Nonce(m.Nonce)
}

func decodeCommit(r *wire.Reader) *Commit {
	return &Commit{
		View:      r.Uint64(),
		Replica:   ReplicaID(r.Uint32()),
		Seq:       r.Uint64(),
		Statement: r.Digest(),
		Nonce:     r.Nonce(),
	}
}

// PreparedProof is one prepared-but-uncommitted instance carried inside a
// view-change: the batch's pre-prepare plus the prepares backing it,
// checked by ledger.Prepared, the rule a CommitCert's prepares meet too.
type PreparedProof struct {
	PP       PrePrepare
	Prepares []ledger.Prepare
}

// maxPreparedClaims bounds the prepared-instance list accepted on decode;
// any real list holds at most the proposal window's worth of claims.
const maxPreparedClaims = 1 << 8

// ViewChange asks to move to view NewView. It carries the sender's highest
// committed sequence number with the commit certificate proving it, and one
// PreparedProof per prepared-but-uncommitted instance in the sender's
// proposal window, in ascending sequence order — the new primary must
// re-propose every certified batch of the contiguous uncommitted prefix,
// which is what preserves safety across the change (a batch that committed
// anywhere was prepared by a quorum, which shares at least f+1 replicas,
// so at least one honest one, with every view-change quorum; a batch
// beyond the first uncertified gap cannot have committed anywhere, because
// commits are in order). All proofs are made of signed or nonce-opened messages, so no
// claim can be fabricated.
type ViewChange struct {
	NewView      uint64
	Replica      ReplicaID
	CommittedSeq uint64
	// CommitProof certifies CommittedSeq (nil only when CommittedSeq is 0).
	CommitProof *ledger.CommitCert
	// Prepared holds the prepared uncommitted instances, ascending by
	// sequence number (gaps allowed: quorums can form out of order).
	Prepared []PreparedProof
	Sig      hashsig.Signature
}

// Type implements Message.
func (m *ViewChange) Type() MsgType { return MsgViewChange }

// SigningDigest covers the target view, the sender, its committed sequence
// number, and the identity of every prepared statement in order; the
// prepared entries are bound transitively through each header's ¯G.
func (m *ViewChange) SigningDigest() hashsig.Digest {
	var buf [256]byte
	b := append(buf[:0], viewChangeDomain...)
	b = wire.AppendUint64(b, m.NewView)
	b = wire.AppendUint32(b, uint32(m.Replica))
	b = wire.AppendUint64(b, m.CommittedSeq)
	b = wire.AppendUint32(b, uint32(len(m.Prepared)))
	for i := range m.Prepared {
		b = wire.AppendDigest(b, m.Prepared[i].PP.Header.StatementDigest())
	}
	return hashsig.Sum(b)
}

// Verify reports whether the view-change carries a valid signature by pub.
func (m *ViewChange) Verify(pub *hashsig.PublicKey) bool {
	return pub.Verify(m.SigningDigest(), m.Sig)
}

func (m *ViewChange) encodeBody(w *wire.Writer) {
	w.Uint64(m.NewView)
	w.Uint32(uint32(m.Replica))
	w.Uint64(m.CommittedSeq)
	encodeCert(w, m.CommitProof)
	w.Uint32(uint32(len(m.Prepared)))
	for i := range m.Prepared {
		m.Prepared[i].PP.encodeBody(w)
		w.Uint32(uint32(len(m.Prepared[i].Prepares)))
		for j := range m.Prepared[i].Prepares {
			m.Prepared[i].Prepares[j].EncodeTo(w)
		}
	}
	w.Bytes(m.Sig)
}

// encodeCert writes an optional certificate: a uint32 presence flag, then
// the certificate if there is one.
func encodeCert(w *wire.Writer, c *ledger.CommitCert) {
	if c == nil {
		w.Uint32(0)
		return
	}
	w.Uint32(1)
	c.EncodeTo(w)
}

// decodeCert reads what encodeCert wrote; a flag other than 0 or 1 fails r.
func decodeCert(r *wire.Reader, what string) *ledger.CommitCert {
	switch flag := r.Uint32(); {
	case r.Err() != nil:
	case flag == 1:
		return ledger.DecodeCommitCert(r)
	case flag != 0:
		r.Fail(fmt.Errorf("%w: %s flag %d", ErrBadMessage, what, flag))
	}
	return nil
}

func decodeViewChange(r *wire.Reader) *ViewChange {
	m := &ViewChange{
		NewView:      r.Uint64(),
		Replica:      ReplicaID(r.Uint32()),
		CommittedSeq: r.Uint64(),
	}
	m.CommitProof = decodeCert(r, "commit proof")
	m.Prepared = wire.ReadList(r, maxPreparedClaims, "prepared claims", func(r *wire.Reader) PreparedProof {
		return PreparedProof{
			PP:       *decodePrePrepare(r),
			Prepares: wire.ReadList(r, maxViewChanges, "prepare proofs", ledger.DecodePrepare),
		}
	})
	m.Sig = r.Bytes(hashsig.SignatureSize)
	return m
}

// NewView is the new primary's certificate for entering its view: a
// quorum of signed view-changes. Receivers recompute the committed
// high-water mark and the prepared batch to re-propose from the
// certificate itself, so a lying new primary cannot smuggle in a different
// starting state.
type NewView struct {
	View    uint64
	Replica ReplicaID
	VCs     []ViewChange
	Sig     hashsig.Signature
}

// Type implements Message.
func (m *NewView) Type() MsgType { return MsgNewView }

// SigningDigest covers the view, the sender, and every carried view-change
// (its signing digest and signature bytes, so the certificate cannot be
// reshuffled under the same signature).
func (m *NewView) SigningDigest() hashsig.Digest {
	h := hashsig.NewHasher()
	h.Write(newViewDomain)
	var u [8]byte
	h.Write(wire.AppendUint64(u[:0], m.View))
	h.Write(wire.AppendUint32(u[:0], uint32(m.Replica)))
	for i := range m.VCs {
		d := m.VCs[i].SigningDigest()
		h.Write(d[:])
		// Same bytes as wire.AppendBytes: uint32 length prefix, then the
		// signature, streamed without assembling an intermediate slice.
		h.Write(wire.AppendUint32(u[:0], uint32(len(m.VCs[i].Sig))))
		h.Write(m.VCs[i].Sig)
	}
	var d hashsig.Digest
	h.Sum(d[:0])
	return d
}

// Verify reports whether the new-view carries a valid signature by pub.
func (m *NewView) Verify(pub *hashsig.PublicKey) bool {
	return pub.Verify(m.SigningDigest(), m.Sig)
}

func (m *NewView) encodeBody(w *wire.Writer) {
	w.Uint64(m.View)
	w.Uint32(uint32(m.Replica))
	w.Uint32(uint32(len(m.VCs)))
	for i := range m.VCs {
		m.VCs[i].encodeBody(w)
	}
	w.Bytes(m.Sig)
}

func decodeNewView(r *wire.Reader) *NewView {
	m := &NewView{
		View:    r.Uint64(),
		Replica: ReplicaID(r.Uint32()),
	}
	m.VCs = wire.ReadList(r, maxViewChanges, "view-changes", func(r *wire.Reader) ViewChange {
		return *decodeViewChange(r)
	})
	m.Sig = r.Bytes(hashsig.SignatureSize)
	return m
}

// SyncRequest is a laggard's ask for the commits it lacks, sent to one
// peer: a peer that committed past HaveSeq answers with SyncChunks. Sync
// messages are unsigned — nothing in them is trusted. Every chunk carries a
// commit certificate and is verified against the digests that certificate
// signs over before adoption, so a forged or spoofed sync message can waste
// a round trip but never corrupt state.
type SyncRequest struct {
	Replica ReplicaID // requester
	HaveSeq uint64    // requester's committed watermark
}

// Type implements Message.
func (m *SyncRequest) Type() MsgType { return MsgSyncRequest }

func (m *SyncRequest) encodeBody(w *wire.Writer) {
	w.Uint32(uint32(m.Replica))
	w.Uint64(m.HaveSeq)
}

func decodeSyncRequest(r *wire.Reader) *SyncRequest {
	return &SyncRequest{
		Replica: ReplicaID(r.Uint32()),
		HaveSeq: r.Uint64(),
	}
}

// maxFrontierBytes bounds the encoded history-tree frontier accepted on
// decode: 12 header bytes plus at most 64 peak digests.
const maxFrontierBytes = 1 << 12

// Chunk kinds carried by SyncChunk.
const (
	// SyncChunkState is the checkpoint's state, the store's canonical
	// serialization; Index is 0. It verifies by decoding to a store whose
	// digest is the certified header's d_C.
	SyncChunkState uint32 = 0
	// SyncChunkBatch is one committed batch above the offer's start; Index
	// is the offset, so the batch's sequence number is CkptSeq+1+Index. It
	// verifies transitively by replaying up to the certified header.
	SyncChunkBatch uint32 = 1
)

// SyncChunk is one chunk of the transfer a peer pushes to a requester, and
// the offer the transfer is under: the commit certificate for the source's
// latest committed batch, and where the transfer starts. While the source
// still retains batch HaveSeq+1 the offer is the suffix alone: CkptSeq is
// the requester's HaveSeq, Frontier is empty, and the batches
// CkptSeq+1..Cert.Seq() apply onto the requester's own ledger. Otherwise
// it is the source's latest committed checkpoint (sequence number and
// history-tree frontier, never empty) plus one state chunk and the suffix
// above it: a non-empty Frontier is what makes an offer a checkpoint
// offer. Every chunk of one push carries the same offer, so chunks verify
// and assemble in any arrival order. The certificate is the sole trust
// anchor of the transfer: the state chunk must rebuild to a store whose
// digest is its signed header's d_C, and the batch suffix up to the
// certified sequence number must replay to the certified header.
type SyncChunk struct {
	Replica   ReplicaID // source
	Requester ReplicaID
	CkptSeq   uint64
	Frontier  []byte // merkle.Frontier.Encode() at CkptSeq; empty for a suffix-only offer
	Cert      *ledger.CommitCert
	Kind      uint32
	Index     uint64
	Data      []byte
}

// Type implements Message.
func (m *SyncChunk) Type() MsgType { return MsgSyncChunk }

func (m *SyncChunk) encodeBody(w *wire.Writer) {
	w.Uint32(uint32(m.Replica))
	w.Uint32(uint32(m.Requester))
	w.Uint64(m.CkptSeq)
	w.Bytes(m.Frontier)
	m.Cert.EncodeTo(w)
	w.Uint32(m.Kind)
	w.Uint64(m.Index)
	w.Bytes(m.Data)
}

func decodeSyncChunk(r *wire.Reader) *SyncChunk {
	m := &SyncChunk{
		Replica:   ReplicaID(r.Uint32()),
		Requester: ReplicaID(r.Uint32()),
		CkptSeq:   r.Uint64(),
	}
	m.Frontier = r.Bytes(maxFrontierBytes)
	m.Cert = ledger.DecodeCommitCert(r)
	m.Kind = r.Uint32()
	m.Index = r.Uint64()
	m.Data = r.Bytes(wire.MaxChunkLen)
	return m
}

// Forward relays a client request to the replicas, so that whichever one
// leads proposes it. It is unsigned: until requests carry the client's
// signature, a relayed request is no more forgeable than one a client sends
// directly. The body is the request's submission encoding, decoded by
// ledger.DecodeRequest under its cap.
type Forward struct {
	Request ledger.Request
}

// Type implements Message.
func (m *Forward) Type() MsgType { return MsgForward }

func (m *Forward) encodeBody(w *wire.Writer) { w.Bytes(ledger.EncodeRequest(nil, &m.Request)) }

func decodeForward(r *wire.Reader) *Forward {
	// The submission encoding's fixed fields are 48 bytes.
	rq, err := ledger.DecodeRequest(r.Bytes(ledger.MaxRequestLen + 48))
	if err != nil {
		r.Fail(err)
	}
	return &Forward{Request: rq}
}

// EncodeMessage serializes a message as one self-describing frame: the type
// tag as a big-endian uint32, then the body in the deterministic wire codec.
// The returned slice is freshly allocated and owned by the caller: frames
// outlive the call (they sit in transport queues), so they are never
// reused.
//
// A pre-prepare, the one frame the size of a batch, is encoded into a
// buffer of exactly its length (ledger.Batch.EncodedLen) through concrete
// calls, so the frame is its one allocation and len equals cap. Every
// other message starts from 256 bytes and grows by append.
func EncodeMessage(m Message) []byte {
	if pp, ok := m.(*PrePrepare); ok {
		b := pp.Batch()
		w := wire.NewAppendWriter(make([]byte, 0, 4+b.EncodedLen()))
		w.Uint32(uint32(MsgPrePrepare))
		b.EncodeTo(w)
		return w.AppendedBytes()
	}
	w := wire.NewAppendWriter(make([]byte, 0, 256))
	w.Uint32(uint32(m.Type()))
	m.encodeBody(w)
	if err := w.Flush(); err != nil {
		// Appending never fails.
		panic(err)
	}
	return w.AppendedBytes()
}

// DecodeMessage parses a frame produced by EncodeMessage. Malformed and
// hostile inputs — unknown tags, truncation, oversized counts, trailing
// garbage — return an error, never panic.
func DecodeMessage(b []byte) (Message, error) {
	r := wire.NewBytesReader(b)
	var m Message
	tag := r.Uint32()
	if r.Err() == nil && tag > uint32(MsgForward) {
		// Reject out-of-range tags on the full 32 bits: a silent truncation
		// to MsgType's underlying byte would let distinct frames decode to
		// the same message, breaking canonical encoding.
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, tag)
	}
	switch t := MsgType(tag); t {
	case MsgPrePrepare:
		m = decodePrePrepare(r)
	case MsgPrepare:
		m = &Prepare{ledger.DecodePrepare(r)}
	case MsgCommit:
		m = decodeCommit(r)
	case MsgViewChange:
		m = decodeViewChange(r)
	case MsgNewView:
		m = decodeNewView(r)
	case MsgSyncRequest:
		m = decodeSyncRequest(r)
	case MsgSyncChunk:
		m = decodeSyncChunk(r)
	case MsgForward:
		m = decodeForward(r)
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, t)
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return m, nil
}
