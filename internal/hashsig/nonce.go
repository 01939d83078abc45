package hashsig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// NonceSize is the size in bytes of L-PBFT commitment nonces.
const NonceSize = 32

// Nonce is the value a replica commits to (by hash) in its pre-prepare or
// prepare message and reveals in its commit message. Revealing the
// preimage proves the replica prepared the batch without requiring a
// second signature (paper §3.1, Appx. A Lemma 3). A replica derives it
// with PrivateKey.Nonce; see the package doc for why a keyed derivation
// keeps the scheme's properties.
type Nonce [NonceSize]byte

// ZeroNonce is the all-zero nonce, used as "absent".
var ZeroNonce Nonce

// nonceKeyDomain separates the nonce key from every other use of the
// signing seed.
const nonceKeyDomain = "iaccf-nonce-key:"

// nonceKey derives the HMAC key for commit nonces from an Ed25519 seed.
func nonceKey(seed []byte) Digest {
	return SumMany([]byte(nonceKeyDomain), seed)
}

// Nonce returns this key's commit nonce for the batch with content digest
// content at (view, seq): HMAC-SHA-256 under a key derived from the
// signing seed, over view ‖ seq ‖ content. The same statement always gets
// the same nonce, so a replica's messages are a function of its inputs.
func (p *PrivateKey) Nonce(view, seq uint64, content Digest) Nonce {
	mac := hmac.New(sha256.New, p.nonceKey[:])
	var vs [16]byte
	binary.BigEndian.PutUint64(vs[:8], view)
	binary.BigEndian.PutUint64(vs[8:], seq)
	mac.Write(vs[:])
	mac.Write(content[:])
	var n Nonce
	mac.Sum(n[:0])
	return n
}

// NonceFromSeed deterministically derives a nonce, for reproducible tests.
func NonceFromSeed(seed string) Nonce {
	return Nonce(Sum([]byte("iaccf-nonce-seed:" + seed)))
}

// Commit returns the hash commitment H(n) that is embedded in signed
// pre-prepare/prepare messages.
func (n Nonce) Commit() Digest {
	return Sum(n[:])
}

// IsZero reports whether the nonce is absent.
func (n Nonce) IsZero() bool { return n == ZeroNonce }

// Opens reports whether n is the preimage of commitment c.
func (n Nonce) Opens(c Digest) bool {
	return n.Commit() == c
}
