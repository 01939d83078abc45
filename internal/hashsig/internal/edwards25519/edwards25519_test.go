package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
)

// verdict checks that Key.Verify gives crypto/ed25519.Verify's verdict on
// one case and returns it. A key that does not decode verifies nothing.
func verdict(t *testing.T, pub, msg, sig []byte) bool {
	t.Helper()
	want := ed25519.Verify(pub, msg, sig)
	k, err := NewKey(pub)
	got := err == nil && k.Verify(msg, sig)
	if got != want {
		t.Fatalf("pub %x msg %x sig %x: Verify = %v, crypto/ed25519 says %v", pub, msg, sig, got, want)
	}
	return got
}

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestRFC8032Vectors checks RFC 8032 §7.1 TEST 1-3.
func TestRFC8032Vectors(t *testing.T) {
	for _, v := range []struct{ seed, pub, msg, sig string }{
		{"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
			"d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
			"e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
		{"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
			"3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
			"92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
		{"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
			"fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
			"6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
	} {
		priv := ed25519.NewKeyFromSeed(unhex(v.seed))
		pub, msg, sig := unhex(v.pub), unhex(v.msg), unhex(v.sig)
		if !bytes.Equal(priv.Public().(ed25519.PublicKey), pub) || !bytes.Equal(ed25519.Sign(priv, msg), sig) {
			t.Fatalf("vector for seed %s does not match crypto/ed25519", v.seed)
		}
		if !verdict(t, pub, msg, sig) {
			t.Fatalf("vector for seed %s rejected", v.seed)
		}
		bad := bytes.Clone(sig)
		bad[0] ^= 1
		verdict(t, pub, msg, bad)
	}
}

// TestEdgeEncodings holds the verifier to crypto/ed25519 where the two could
// most plausibly part: keys of small order, non-canonical and off-curve key
// encodings, a non-canonical R, and an S that is not reduced.
func TestEdgeEncodings(t *testing.T) {
	identity := unhex("0100000000000000000000000000000000000000000000000000000000000000")
	smallOrder := [][]byte{
		identity, // order 1
		unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // y = -1, order 2
		unhex("0000000000000000000000000000000000000000000000000000000000000000"), // y = 0, order 4
		unhex("0000000000000000000000000000000000000000000000000000000000000080"),
		unhex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"), // order 8
		unhex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"),
		unhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
		unhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"),
	}
	nonCanonical := [][]byte{
		unhex("0100000000000000000000000000000000000000000000000000000000000080"), // identity, x = -0
		unhex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // y = p + 1
		unhex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // y = p
		unhex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"), // y = 2^255 - 1
	}
	keys := append(append([][]byte{}, smallOrder...), nonCanonical...)
	accepted, offCurve := 0, 0
	for y := byte(2); y < 12; y++ { // about half of these y have no x
		pub := make([]byte, 32)
		pub[0] = y
		if _, err := NewKey(pub); err != nil {
			offCurve++
		}
		keys = append(keys, pub)
	}
	if offCurve == 0 {
		t.Fatal("no off-curve key among the cases")
	}
	// With S = 0 the signature equation is R = [k](−A), which a small-order
	// A meets for some messages: R set to each small-order point (and to
	// non-canonical encodings of them) over a few messages.
	for _, pub := range keys {
		for _, r := range keys {
			for m := byte(0); m < 8; m++ {
				sig := append(bytes.Clone(r), make([]byte, 32)...)
				if verdict(t, pub, []byte{m}, sig) {
					accepted++
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no edge case verified: the cases do not reach the equation")
	}

	priv := ed25519.NewKeyFromSeed(make([]byte, 32))
	pub, msg := priv.Public().(ed25519.PublicKey), []byte("edge")
	sig := ed25519.Sign(priv, msg)
	if !verdict(t, pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	ell := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 252), mustBig("27742317777372353535851937790883648493"))
	withS := func(s *big.Int) []byte {
		out := bytes.Clone(sig)
		le := s.FillBytes(make([]byte, 32))
		for i := range 32 {
			out[32+i] = le[31-i]
		}
		return out
	}
	s := new(big.Int).SetBytes(reverse(sig[32:]))
	topBits := bytes.Clone(sig)
	topBits[63] |= 0xe0
	for _, bad := range [][]byte{
		withS(ell),                            // S = ℓ
		withS(new(big.Int).Add(s, ell)),       // S + ℓ: the same scalar, not reduced
		topBits,                               // S with its top bits set
		sig[:63], append(bytes.Clone(sig), 0), // wrong lengths
	} {
		if verdict(t, pub, msg, bad) {
			t.Fatalf("malleated signature %x accepted", bad)
		}
	}
}

// TestRandomCasesAgree compares verdicts on random valid signatures, their
// single-byte mutations and random garbage.
func TestRandomCasesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		priv := ed25519.NewKeyFromSeed(seed)
		pub := priv.Public().(ed25519.PublicKey)
		msg := make([]byte, rng.Intn(100))
		rng.Read(msg)
		sig := ed25519.Sign(priv, msg)
		if !verdict(t, pub, msg, sig) {
			t.Fatal("valid signature rejected")
		}
		bad := bytes.Clone(sig)
		bad[rng.Intn(64)] ^= byte(1 + rng.Intn(255))
		verdict(t, pub, msg, bad)
		rng.Read(bad)
		verdict(t, pub, msg, bad)
		other := bytes.Clone(pub)
		other[rng.Intn(32)] ^= byte(1 + rng.Intn(255))
		verdict(t, other, msg, sig)
	}
}

// TestReduceMatchesBig holds the Barrett reduction to math/big.
func TestReduceMatchesBig(t *testing.T) {
	ell := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 252), mustBig("27742317777372353535851937790883648493"))
	one := big.NewInt(1)
	max512 := new(big.Int).Sub(new(big.Int).Lsh(one, 512), one)
	inputs := []*big.Int{
		new(big.Int),
		new(big.Int).Sub(ell, one),
		ell,
		new(big.Int).Add(ell, one),
		new(big.Int).Lsh(ell, 1),
		new(big.Int).Lsh(one, 256),
		max512,
		new(big.Int).Sub(max512, ell),
		new(big.Int).Mul(new(big.Int).Div(max512, ell), ell),
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(1+rng.Intn(512)))))
	}
	for _, x := range inputs {
		var in [64]byte
		copy(in[:], reverse(x.FillBytes(make([]byte, 64))))
		var out [32]byte
		reduce(&out, &in)
		want := new(big.Int).Mod(x, ell)
		if got := new(big.Int).SetBytes(reverse(out[:])); got.Cmp(want) != 0 {
			t.Fatalf("reduce(%x) = %x, want %x", x, got, want)
		}
		if !isReduced(&out) {
			t.Fatalf("reduce(%x) is not below ℓ", x)
		}
	}
	var l [32]byte
	copy(l[:], reverse(ell.FillBytes(make([]byte, 32))))
	if isReduced(&l) {
		t.Fatal("ℓ counts as reduced")
	}
}

func mustBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic(s)
	}
	return v
}

// reverse returns b's bytes in reverse order: big-endian to little-endian.
func reverse(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}
