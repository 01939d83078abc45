// Package hashsig provides the cryptographic substrate for IA-CCF: SHA-256
// digests, Ed25519 signatures, the nonce-commitment scheme used by L-PBFT,
// a parallel verification pool, and the set of signature checks already
// made.
//
// # The signature scheme
//
// A Signature is the 64-byte RFC 8032 Ed25519 signature over the 32 bytes
// of a Digest; a PublicKey encodes to 32 bytes. This package alone knows
// that: it exports SignatureSize and PublicKeySize, every decoder caps its
// signature fields at the former, and nothing else imports a signature
// package. The paper's implementation signs with secp256k1 through
// EverCrypt; the design needs only unforgeable signed statements, so the
// scheme is a cost row, and at the same ~128-bit level Ed25519 is the
// cheapest one the standard library has (≈ 22 µs to sign and ≈ 55 µs to
// verify on two cores, against ≈ 40 and ≈ 82 µs for its P-256 ECDSA; it has
// no secp256k1). crypto/sha256 likewise stands in for EverCrypt's SHA-256.
//
// Signing is deterministic — no entropy is read on the commit path, and one
// key over one statement always yields the same bytes, so a replica that
// re-issues a statement re-issues the same message and ledgers can be
// compared signatures included. Verification is strict: the scalar half S
// must be reduced (S < L), so a third party cannot turn one valid signature
// into a second encoding of it. Even where some encoding did slip through,
// it could not poison a VerifiedSet: members are keyed by the exact
// signature bytes, so only bytes that themselves passed Verify are ever
// vouched for. Verify is total — no key or signature off a socket, of any
// length, makes it panic.
//
// # The verified set
//
// VerifiedSet is the one place the repo remembers a successful signature
// check. It is generic over its member type, and a member names all three
// components of the check — key, signed statement, signature bytes: binding
// all three is what makes a hit mean "this exact check succeeded here
// before" — a digest alone would let one key's valid signature vouch for
// other bytes or another key over the same message. Consensus replicas key
// their sets by MemoKey, the digest of the three; the ledger keys headers by
// the checked fields themselves, so a repeat check compares instead of
// hashing. Only successes are members, residency is bounded (two
// generations, hits promote), and eviction costs a re-check, never a
// verdict. Sets are instances, not global state: ledger keeps one behind
// BatchHeader.Verify for the clients and auditors of a process, each
// consensus replica keeps its own, and PublicKey.Verify itself consults none
// — a memo on the key would let in-process replicas that share key objects
// skip each other's checks, a saving no real deployment has.
//
// # Commit nonces
//
// A replica's commit nonce is not drawn from entropy: PrivateKey.Nonce is
// HMAC-SHA-256 under a key derived, domain-tagged, from the signing seed,
// over (view, seq, content digest). Nothing on a replica's path reads
// randomness, so its messages are a function of its inputs and two runs
// of one schedule emit the same bytes. The commitment scheme keeps its
// three properties:
//
//   - An opening opens one statement. The content is a PRF input, so the
//     nonce for another batch, or for the same batch at another view or
//     seq, is an independent value; revealing one says nothing about
//     another, and an opening only counts beside the replica's own signed
//     prepare, which names the statement.
//   - The commitment hides until opened. H(nonce) reveals nothing without
//     the nonce key, which never leaves the replica, so a peer cannot
//     compute an opening from the statement it sees.
//   - Equivocation stays provable. A replica that prepares two statements
//     in one slot signs two prepares (or, as primary, two headers) for
//     them; those signatures, not the nonces, are the evidence (ledger's
//     Blame), and a deterministic nonce removes none of them.
package hashsig

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// DigestSize is the size in bytes of all digests used by IA-CCF.
const DigestSize = sha256.Size

// Digest is a SHA-256 hash value. Ledger entries, protocol messages and
// Merkle tree nodes are all identified by Digests.
type Digest [DigestSize]byte

// ZeroDigest is the all-zero digest, used as a placeholder for "no value"
// (for example the checkpoint digest before the first checkpoint exists).
var ZeroDigest Digest

// Sum returns the SHA-256 digest of data.
func Sum(data []byte) Digest {
	return sha256.Sum256(data)
}

// NewHasher returns a streaming hasher whose Sum output is a Digest's bytes.
func NewHasher() hash.Hash { return sha256.New() }

// SumMany returns the SHA-256 digest of the concatenation of the given
// byte slices without materializing the concatenation: the parts stream
// through one hasher, which stays on the stack, and none is retained.
func SumMany(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// String returns the first 8 bytes of the digest in hex, for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:8]) }

// Bytes returns the digest as a freshly allocated byte slice.
func (d Digest) Bytes() []byte {
	out := make([]byte, DigestSize)
	copy(out, d[:])
	return out
}
