package hashsig

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

// signCount and verifyCount count ECDSA operations performed by this
// process — the primitive, not the callers: a VerifiedSet hit is not a
// verification. No clock is read; see Counts.
var signCount, verifyCount atomic.Uint64

// Counts returns how many ECDSA signatures this process has produced and
// how many verifications it has run since it started. Signatures are the
// largest fixed cost of a batch, so tests assert the protocol's bill as a
// difference of two Counts calls (consensus.TestSignaturesPerBatch).
func Counts() (signs, verifies uint64) {
	return signCount.Load(), verifyCount.Load()
}

// Signature is an ASN.1 DER-encoded ECDSA signature over a Digest.
type Signature []byte

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	out := make(Signature, len(s))
	copy(out, s)
	return out
}

// PrivateKey is a replica, member, or client signing key.
type PrivateKey struct {
	key *ecdsa.PrivateKey
}

// PublicKey is the verification half of a PrivateKey. Its canonical byte
// encoding (Bytes) is what the ledger and governance transactions store.
// The key's ID is computed once, when the object is built, so a
// VerifiedSet lookup never pays a point marshal.
type PublicKey struct {
	key *ecdsa.PublicKey
	id  Digest
}

func newPublicKey(k *ecdsa.PublicKey) *PublicKey {
	return &PublicKey{key: k, id: Sum(elliptic.Marshal(elliptic.P256(), k.X, k.Y))}
}

// GenerateKey creates a fresh P-256 key pair using entropy from r
// (crypto/rand.Reader if r is nil).
func GenerateKey(r io.Reader) (*PrivateKey, error) {
	if r == nil {
		r = rand.Reader
	}
	k, err := ecdsa.GenerateKey(elliptic.P256(), r)
	if err != nil {
		return nil, fmt.Errorf("hashsig: generate key: %w", err)
	}
	return &PrivateKey{key: k}, nil
}

// MustGenerateKey is GenerateKey with crypto/rand, panicking on failure.
// Entropy exhaustion is not a recoverable condition for callers.
func MustGenerateKey() *PrivateKey {
	k, err := GenerateKey(nil)
	if err != nil {
		panic(err)
	}
	return k
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey {
	return newPublicKey(&p.key.PublicKey)
}

// Sign signs the digest d and returns an ASN.1 DER signature.
func (p *PrivateKey) Sign(d Digest) (Signature, error) {
	signCount.Add(1)
	sig, err := ecdsa.SignASN1(rand.Reader, p.key, d[:])
	if err != nil {
		return nil, fmt.Errorf("hashsig: sign: %w", err)
	}
	return sig, nil
}

// MustSign is Sign panicking on failure; ECDSA signing over a fixed-size
// digest only fails on entropy exhaustion.
func (p *PrivateKey) MustSign(d Digest) Signature {
	sig, err := p.Sign(d)
	if err != nil {
		panic(err)
	}
	return sig
}

// Verify reports whether sig is a valid signature by k over digest d.
func (k *PublicKey) Verify(d Digest, sig Signature) bool {
	if k == nil || k.key == nil {
		return false
	}
	verifyCount.Add(1)
	return ecdsa.VerifyASN1(k.key, d[:], sig)
}

// Bytes returns the canonical (uncompressed SEC1) encoding of the key.
func (k *PublicKey) Bytes() []byte {
	return elliptic.Marshal(elliptic.P256(), k.key.X, k.key.Y)
}

// ID returns the digest of the canonical key encoding. Clients and members
// are identified by their key IDs throughout the system.
func (k *PublicKey) ID() Digest { return k.id }

// Equal reports whether two public keys are the same point.
func (k *PublicKey) Equal(o *PublicKey) bool {
	if k == nil || o == nil {
		return k == o
	}
	return k.key.Equal(o.key)
}

// ParsePublicKey decodes a canonical public key encoding.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	x, y := elliptic.Unmarshal(elliptic.P256(), b)
	if x == nil {
		return nil, errors.New("hashsig: invalid public key encoding")
	}
	return newPublicKey(&ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}), nil
}

// GenerateKeyFromSeed deterministically derives a key pair from a seed
// string by hashing the seed into the private scalar. Intended for tests,
// examples, and reproducible benchmarks; real deployments must use
// GenerateKey.
func GenerateKeyFromSeed(seed string) *PrivateKey {
	curve := elliptic.P256()
	order := curve.Params().N
	h := Sum([]byte("iaccf-key-seed:" + seed))
	d := new(big.Int).SetBytes(h[:])
	// Map into [1, order-1].
	d.Mod(d, new(big.Int).Sub(order, big.NewInt(1)))
	d.Add(d, big.NewInt(1))
	k := &ecdsa.PrivateKey{D: d}
	k.PublicKey.Curve = curve
	k.PublicKey.X, k.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return &PrivateKey{key: k}
}
