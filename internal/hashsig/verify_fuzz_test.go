package hashsig

import (
	"crypto/ed25519"
	"testing"
)

// FuzzVerifyMatchesStdlib holds PublicKey.Verify, which checks against the
// key's precomputed table, to crypto/ed25519.Verify's verdict on any key
// seed, digest and signature bytes. The corpus starts from a valid
// signature and each of its single-byte flips.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	d := Sum([]byte("fuzz"))
	sig := GenerateKeyFromSeed("fuzz").MustSign(d)
	f.Add("fuzz", d[:], []byte(sig))
	for i := range sig {
		flipped := sig.Clone()
		flipped[i] ^= 0x01
		f.Add("fuzz", d[:], []byte(flipped))
	}
	f.Fuzz(func(t *testing.T, seed string, digest, sig []byte) {
		pub := GenerateKeyFromSeed(seed).Public()
		var d Digest
		copy(d[:], digest)
		if got, want := pub.Verify(d, sig), ed25519.Verify(pub.key, d[:], sig); got != want {
			t.Fatalf("seed %q digest %x sig %x: Verify = %v, crypto/ed25519 says %v", seed, d, sig, got, want)
		}
	})
}
