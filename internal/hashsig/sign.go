package hashsig

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"sync/atomic"

	"iaccf/internal/hashsig/internal/edwards25519"
)

// SignatureSize and PublicKeySize are the exact encoded lengths of a
// Signature and of PublicKey.Bytes. Decoders cap signature fields read
// from a socket at SignatureSize; this package alone knows the scheme
// behind the numbers.
const (
	SignatureSize = ed25519.SignatureSize
	PublicKeySize = ed25519.PublicKeySize
)

// signCount and verifyCount count Ed25519 operations performed by this
// process — the primitive, not the callers: a VerifiedSet hit is not a
// verification. No clock is read; see Counts.
var signCount, verifyCount atomic.Uint64

// Counts returns how many signatures this process has produced and how
// many verifications it has run since it started. Signatures are the
// largest fixed cost of a batch, so tests assert the protocol's bill as a
// difference of two Counts calls (consensus.TestSignaturesPerBatch).
func Counts() (signs, verifies uint64) {
	return signCount.Load(), verifyCount.Load()
}

// Signature is a SignatureSize-byte Ed25519 signature (RFC 8032, R || S)
// over the 32 bytes of a Digest. Signing is deterministic: one key over
// one digest always yields the same bytes.
type Signature []byte

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	out := make(Signature, len(s))
	copy(out, s)
	return out
}

// PrivateKey is a replica, member, or client signing key, with the nonce
// key derived from its seed (Nonce).
type PrivateKey struct {
	key      ed25519.PrivateKey
	nonceKey Digest
}

// newPrivateKey wraps k and derives its nonce key.
func newPrivateKey(k ed25519.PrivateKey) *PrivateKey {
	return &PrivateKey{key: k, nonceKey: nonceKey(k.Seed())}
}

// PublicKey is the verification half of a PrivateKey. Its canonical byte
// encoding (Bytes) is what the ledger and governance transactions store.
// The key's ID is computed once, when the object is built, so a
// VerifiedSet lookup never hashes the key. Its verification table (see the
// package doc) is built on its first Verify, so a key made only to compare
// costs nothing. The zero value is a key that verifies nothing.
type PublicKey struct {
	key ed25519.PublicKey
	id  Digest

	once     sync.Once
	verifier *edwards25519.Key // nil if key does not decode
}

// newPublicKey wraps k, which must be PublicKeySize bytes the caller will
// not modify.
func newPublicKey(k ed25519.PublicKey) *PublicKey {
	return &PublicKey{key: k, id: Sum(k)}
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey {
	return newPublicKey(p.key.Public().(ed25519.PublicKey))
}

// MustSign signs the digest d. It reads no entropy and allocates only the
// signature; Ed25519 signing cannot fail, so there is no error.
func (p *PrivateKey) MustSign(d Digest) Signature {
	signCount.Add(1)
	return ed25519.Sign(p.key, d[:])
}

// Verify reports whether sig is a valid signature by k over digest d, with
// crypto/ed25519.Verify's verdict. It is total: a nil or zero-value key, a
// signature of any length other than SignatureSize, or one whose S is not
// reduced (S ≥ L) answers false, and no input panics.
func (k *PublicKey) Verify(d Digest, sig Signature) bool {
	if k == nil || len(k.key) != PublicKeySize {
		return false
	}
	verifyCount.Add(1)
	k.once.Do(k.buildVerifier)
	return k.verifier != nil && k.verifier.Verify(d[:], sig)
}

// buildVerifier decodes the key and builds its table, once. A key that does
// not decode keeps a nil verifier, which verifies nothing; that is the whole
// of what the error says.
func (k *PublicKey) buildVerifier() {
	k.verifier, _ = edwards25519.NewKey(k.key)
}

// Bytes returns a copy of the canonical PublicKeySize-byte encoding of
// the key (RFC 8032 §5.1.5).
func (k *PublicKey) Bytes() []byte {
	return bytes.Clone(k.key)
}

// ID returns the digest of the canonical key encoding. Clients and members
// are identified by their key IDs throughout the system.
func (k *PublicKey) ID() Digest { return k.id }

// Equal reports whether two public keys have the same encoding.
func (k *PublicKey) Equal(o *PublicKey) bool {
	if k == nil || o == nil {
		return k == o
	}
	return bytes.Equal(k.key, o.key)
}

// GenerateKeyFromSeed deterministically derives a key pair from a seed
// string by hashing the seed into the RFC 8032 private seed. Every key in
// this repository comes from here (cmd/node's -seed), which suits tests,
// demos and reproducible benchmarks; a deployment needs secret seeds.
func GenerateKeyFromSeed(seed string) *PrivateKey {
	h := Sum([]byte("iaccf-key-seed:" + seed))
	return newPrivateKey(ed25519.NewKeyFromSeed(h[:]))
}
