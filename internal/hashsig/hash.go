// Package hashsig provides the cryptographic substrate for IA-CCF: SHA-256
// digests, ECDSA P-256 signatures, the nonce-commitment scheme used by
// L-PBFT, a parallel verification pool, and the set of signature checks
// already made.
//
// VerifiedSet is the one place the repo remembers a successful signature
// check. A member is the digest of (signed digest, signature bytes, key
// ID): binding all three is what makes a hit mean "this exact check
// succeeded here before" — a digest alone would let one key's valid
// signature vouch for other bytes or another key over the same message.
// Only successes are members, residency is bounded (two generations, hits
// promote), and eviction costs a re-check, never a verdict. Sets are
// instances, not global state: ledger keeps one behind BatchHeader.Verify
// for the clients and auditors of a process, each consensus replica keeps
// its own, and PublicKey.Verify itself consults none — a memo on the key
// would let in-process replicas that share key objects skip each other's
// checks, a saving no real deployment has.
//
// The paper's implementation uses secp256k1 and EverCrypt; this package
// substitutes the Go standard library's P-256 and crypto/sha256, which have
// the same asymptotics (see DESIGN.md §2).
package hashsig

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sync"

	"iaccf/internal/pool"
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

// hasherPool recycles streaming SHA-256 states for BorrowHasher. A sha256
// state is a heap allocation per NewHasher call; digest-heavy paths (shard
// checkpoint digests, certificate signing digests) borrow instead.
var hasherPool = sync.Pool{New: func() any { return sha256.New() }}

// BorrowHasher returns a reset streaming hasher from a process-wide pool.
// Ownership rule: the hasher is the caller's until ReturnHasher; it must
// not be retained — directly or inside any returned value — after that.
func BorrowHasher() hash.Hash {
	h := hasherPool.Get().(hash.Hash)
	h.Reset()
	return h
}

// ReturnHasher gives a borrowed hasher back to the pool.
func ReturnHasher(h hash.Hash) { hasherPool.Put(h) }

// sumManyStack is the assembly-buffer size under which SumMany runs with
// zero heap allocations. 256 bytes covers every fixed-shape preimage in the
// system (domain prefix + a few digests + a signature).
const sumManyStack = 256

// sumManyScratch backs SumMany's over-stack-size path.
var sumManyScratch pool.Bytes

// SumMany returns the SHA-256 digest of the concatenation of the given
// byte slices without materializing the concatenation on the heap: small
// totals concatenate into a stack buffer, larger ones into pooled scratch.
// Neither path retains any part slice past the call.
func SumMany(parts ...[]byte) Digest {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total <= sumManyStack {
		var buf [sumManyStack]byte
		b := buf[:0]
		for _, p := range parts {
			b = append(b, p...)
		}
		return sha256.Sum256(b)
	}
	b := sumManyScratch.Get(total)
	for _, p := range parts {
		b = append(b, p...)
	}
	d := Digest(sha256.Sum256(b))
	sumManyScratch.Put(b)
	return d
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// String returns the first 8 bytes of the digest in hex, for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:8]) }

// Hex returns the full digest in hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Bytes returns the digest as a freshly allocated byte slice.
func (d Digest) Bytes() []byte {
	out := make([]byte, DigestSize)
	copy(out, d[:])
	return out
}

// DigestFromBytes converts a byte slice to a Digest. It returns false if the
// slice is not exactly DigestSize bytes.
func DigestFromBytes(b []byte) (Digest, bool) {
	var d Digest
	if len(b) != DigestSize {
		return d, false
	}
	copy(d[:], b)
	return d, true
}
