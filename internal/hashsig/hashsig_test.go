package hashsig

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSumMatchesSumMany(t *testing.T) {
	f := func(a, b, c []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), c...)
		return Sum(joined) == SumMany(a, b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSumManyAllocatesNothing: the parts stream through a SHA-256 state
// that stays on the stack, whatever their total length.
func TestSumManyAllocatesNothing(t *testing.T) {
	small, large := make([]byte, 128), make([]byte, 4096)
	for _, parts := range [][][]byte{{small}, {small, large, small}} {
		if got := testing.AllocsPerRun(100, func() { SumMany(parts...) }); got != 0 {
			t.Errorf("SumMany over %d parts: %.1f allocations per call, want 0", len(parts), got)
		}
	}
}

func TestDigestZero(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest not zero")
	}
	if Sum(nil).IsZero() {
		t.Fatal("Sum(nil) should not be zero")
	}
}

func TestSignVerify(t *testing.T) {
	k := GenerateKeyFromSeed("sign-verify")
	d := Sum([]byte("transaction"))
	sig := k.MustSign(d)
	if !k.Public().Verify(d, sig) {
		t.Fatal("valid signature rejected")
	}
	if k.Public().Verify(Sum([]byte("other")), sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	other := GenerateKeyFromSeed("sign-verify-other")
	if other.Public().Verify(d, sig) {
		t.Fatal("signature accepted under wrong key")
	}
	// Bytes hands out a copy: writing to it does not change the key.
	pub := k.Public()
	pub.Bytes()[0] ^= 0xff
	if !pub.Verify(d, sig) {
		t.Fatal("writing to Bytes() changed the key")
	}
}

func TestVerifyCorruptedSignature(t *testing.T) {
	k := GenerateKeyFromSeed("corrupt")
	d := Sum([]byte("m"))
	sig := k.MustSign(d)
	for i := range sig {
		bad := sig.Clone()
		bad[i] ^= 0xff
		if k.Public().Verify(d, bad) {
			t.Fatalf("corrupted signature at byte %d accepted", i)
		}
	}
	if k.Public().Verify(d, nil) {
		t.Fatal("nil signature accepted")
	}
}

// TestVerifyTotal: Verify answers false, never panics, for every malformed
// key or signature a socket can deliver — ed25519.Verify itself panics on a
// key of the wrong length.
func TestVerifyTotal(t *testing.T) {
	key := GenerateKeyFromSeed("hostile-verify")
	pub := key.Public()
	d := Sum([]byte("m"))
	sig := key.MustSign(d)
	if !pub.Verify(d, sig) {
		t.Fatal("valid signature rejected")
	}
	// S + L encodes the same scalar mod L; RFC 8032 requires S < L, and
	// accepting it would make every signature malleable. S < L < 2^253, so
	// the sum fits.
	groupOrder := [32]byte{0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10}
	nonCanonical := sig.Clone()
	carry := 0
	for i := 0; i < 32; i++ {
		v := int(sig[32+i]) + int(groupOrder[i]) + carry
		nonCanonical[32+i], carry = byte(v), v>>8
	}
	// Not a point on the curve: y = 2 has no x (decompression fails).
	offCurve := newPublicKey(append([]byte{2}, make([]byte, PublicKeySize-1)...))
	cases := []struct {
		name string
		key  *PublicKey
		sig  Signature
	}{
		{"nil key", nil, sig},
		{"zero-value key", &PublicKey{}, sig},
		{"off-curve key", offCurve, sig},
		{"empty signature", pub, Signature{}},
		{"nil signature", pub, nil},
		{"63-byte signature", pub, sig[:SignatureSize-1]},
		{"65-byte signature", pub, append(sig.Clone(), 0)},
		{"DER-sized signature", pub, make(Signature, 71)},
		{"S >= L", pub, nonCanonical},
	}
	for _, c := range cases {
		if c.key.Verify(d, c.sig) {
			t.Errorf("%s: verified", c.name)
		}
		if memoVerify(NewVerifiedSet[Digest](8), VerifyTask{Key: c.key, Digest: d, Sig: c.sig}) {
			t.Errorf("%s: verified through a VerifiedSet", c.name)
		}
	}
}

// TestSignDeterministic: the same key over the same digest yields the same
// bytes, so a statement signed again — by a restarted replica, a re-proposed
// batch — is a VerifiedSet hit and owes the primitive nothing.
func TestSignDeterministic(t *testing.T) {
	key := GenerateKeyFromSeed("deterministic")
	d := Sum([]byte("statement"))
	first := key.MustSign(d)
	if len(first) != SignatureSize {
		t.Fatalf("signature is %d bytes, want %d", len(first), SignatureSize)
	}
	if again := key.MustSign(d); !bytes.Equal(first, again) {
		t.Fatal("same key and digest produced different signature bytes")
	}
	if other := GenerateKeyFromSeed("deterministic-2").MustSign(d); bytes.Equal(first, other) {
		t.Fatal("a second key produced the same signature")
	}
	set := NewVerifiedSet[Digest](8)
	if !memoVerify(set, VerifyTask{Key: key.Public(), Digest: d, Sig: first}) {
		t.Fatal("valid signature rejected")
	}
	_, v0 := Counts()
	if !memoVerify(set, VerifyTask{Key: key.Public(), Digest: d, Sig: key.MustSign(d)}) {
		t.Fatal("re-signed statement rejected")
	}
	if _, v1 := Counts(); v1 != v0 {
		t.Fatalf("re-signed statement cost %d verifications, want a set hit", v1-v0)
	}
}

func TestNilPublicKeyVerify(t *testing.T) {
	var k *PublicKey
	if k.Verify(Sum([]byte("x")), Signature{1}) {
		t.Fatal("nil key verified a signature")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := GenerateKeyFromSeed("replica-0")
	b := GenerateKeyFromSeed("replica-0")
	c := GenerateKeyFromSeed("replica-1")
	if !a.Public().Equal(b.Public()) {
		t.Fatal("same seed produced different keys")
	}
	if a.Public().Equal(c.Public()) {
		t.Fatal("different seeds produced the same key")
	}
	d := Sum([]byte("payload"))
	if !b.Public().Verify(d, a.MustSign(d)) {
		t.Fatal("cross verification between same-seed keys failed")
	}
}

func TestNonceCommitment(t *testing.T) {
	n := GenerateKeyFromSeed("replica-0").Nonce(1, 2, Sum([]byte("batch")))
	if n.IsZero() {
		t.Fatal("fresh nonce is zero")
	}
	c := n.Commit()
	if !n.Opens(c) {
		t.Fatal("nonce does not open its own commitment")
	}
	var forged Nonce
	copy(forged[:], n[:])
	forged[0] ^= 1
	if forged.Opens(c) {
		t.Fatal("forged nonce opened commitment")
	}
}

func TestNonceFromSeedDeterministic(t *testing.T) {
	if NonceFromSeed("a") != NonceFromSeed("a") {
		t.Fatal("seeded nonce not deterministic")
	}
	if NonceFromSeed("a") == NonceFromSeed("b") {
		t.Fatal("seeded nonces collide")
	}
}

// TestNonceDistinct: a key's nonce is a function of (view, seq, content)
// — the same statement re-derives the same nonce — and changing any input,
// or the key, gives another one.
func TestNonceDistinct(t *testing.T) {
	k := GenerateKeyFromSeed("replica-0")
	content := Sum([]byte("batch"))
	n := k.Nonce(3, 7, content)
	if k.Nonce(3, 7, content) != n {
		t.Fatal("one statement derived two nonces")
	}
	seen := map[Nonce]bool{n: true}
	for _, other := range []Nonce{
		k.Nonce(4, 7, content),
		k.Nonce(3, 8, content),
		k.Nonce(3, 7, Sum([]byte("other batch"))),
		k.Nonce(7, 3, content), // view and seq are not interchangeable
		GenerateKeyFromSeed("replica-1").Nonce(3, 7, content),
	} {
		if seen[other] {
			t.Fatal("two statements or two keys derived one nonce")
		}
		seen[other] = true
	}
}

// allValid reports whether p verifies every task.
func allValid(p *VerifierPool, tasks []VerifyTask) bool {
	for _, ok := range p.VerifyAll(tasks) {
		if !ok {
			return false
		}
	}
	return true
}

func TestVerifierPool(t *testing.T) {
	pool := NewVerifierPool(4)
	defer pool.Close()

	keys := make([]*PrivateKey, 10)
	tasks := make([]VerifyTask, 10)
	for i := range keys {
		keys[i] = GenerateKeyFromSeed(fmt.Sprintf("pool-%d", i))
		d := Sum([]byte{byte(i)})
		tasks[i] = VerifyTask{Key: keys[i].Public(), Digest: d, Sig: keys[i].MustSign(d)}
	}
	if !allValid(pool, tasks) {
		t.Fatal("pool rejected valid signatures")
	}

	// Corrupt one task and check it is pinpointed.
	tasks[7].Sig = tasks[7].Sig.Clone()
	tasks[7].Sig[4] ^= 0x55
	results := pool.VerifyAll(tasks)
	for i, ok := range results {
		if (i == 7) == ok {
			t.Fatalf("task %d: got %v", i, ok)
		}
	}
	if allValid(pool, tasks) {
		t.Fatal("pool accepted a corrupted signature")
	}
}

func TestDefaultPoolTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	p2 := DefaultPool()
	if p2.Workers() != 2 {
		t.Fatalf("pool at GOMAXPROCS=2 has %d workers", p2.Workers())
	}
	runtime.GOMAXPROCS(3)
	p3 := DefaultPool()
	if p3.Workers() != 3 {
		t.Fatalf("pool at GOMAXPROCS=3 has %d workers", p3.Workers())
	}
	// The earlier pool stays usable after the change.
	key := GenerateKeyFromSeed("pool-test")
	d := Sum([]byte("m"))
	sig := key.MustSign(d)
	tasks := []VerifyTask{{Key: key.Public(), Digest: d, Sig: sig}}
	if !allValid(p2, tasks) || !allValid(p3, tasks) {
		t.Fatal("default pools failed a valid verification")
	}
	// Same size is the same cached pool.
	if DefaultPool() != p3 {
		t.Fatal("same GOMAXPROCS did not reuse the cached pool")
	}
}

func TestVerifierPoolEmpty(t *testing.T) {
	pool := NewVerifierPool(0)
	defer pool.Close()
	if got := pool.VerifyAll(nil); len(got) != 0 {
		t.Fatalf("expected empty results, got %d", len(got))
	}
}

func TestVerifierPoolManyTasks(t *testing.T) {
	pool := NewVerifierPool(3)
	defer pool.Close()
	k := GenerateKeyFromSeed("pool-many")
	d := Sum([]byte("same"))
	sig := k.MustSign(d)
	tasks := make([]VerifyTask, 100)
	for i := range tasks {
		tasks[i] = VerifyTask{Key: k.Public(), Digest: d, Sig: sig}
	}
	if !allValid(pool, tasks) {
		t.Fatal("pool rejected valid batch")
	}
}

func TestSignatureClone(t *testing.T) {
	k := GenerateKeyFromSeed("clone")
	sig := k.MustSign(Sum([]byte("x")))
	cl := sig.Clone()
	if !bytes.Equal(sig, cl) {
		t.Fatal("clone differs")
	}
	cl[0] ^= 1
	if bytes.Equal(sig, cl) {
		t.Fatal("clone aliases original")
	}
}

// TestCountsCountThePrimitive: Counts moves once per Ed25519 operation run —
// through MustSign, Verify and the pool alike — and not for work that never
// reaches the primitive: a nil key, a VerifiedSet hit.
func TestCountsCountThePrimitive(t *testing.T) {
	key := GenerateKeyFromSeed("counts")
	pub := key.Public()
	d := Sum([]byte("counted"))
	delta := func(f func()) (signs, verifies uint64) {
		s0, v0 := Counts()
		f()
		s1, v1 := Counts()
		return s1 - s0, v1 - v0
	}
	var sig Signature
	if s, v := delta(func() { sig = key.MustSign(d) }); s != 1 || v != 0 {
		t.Fatalf("MustSign counted %d signs, %d verifies", s, v)
	}
	if s, v := delta(func() { pub.Verify(d, sig); pub.Verify(d, Signature("garbage")) }); s != 0 || v != 2 {
		t.Fatalf("two Verify calls counted %d signs, %d verifies", s, v)
	}
	if s, v := delta(func() { (*PublicKey)(nil).Verify(d, sig) }); s != 0 || v != 0 {
		t.Fatalf("nil-key Verify counted %d signs, %d verifies", s, v)
	}
	pool := NewVerifierPool(2)
	defer pool.Close()
	tasks := make([]VerifyTask, 5)
	for i := range tasks {
		tasks[i] = VerifyTask{Key: pub, Digest: d, Sig: sig}
	}
	if s, v := delta(func() { pool.VerifyAll(tasks) }); s != 0 || v != 5 {
		t.Fatalf("pooled VerifyAll of 5 counted %d signs, %d verifies", s, v)
	}
	set := NewVerifiedSet[Digest](8)
	if s, v := delta(func() { memoVerify(set, tasks[0]); memoVerify(set, tasks[0]); memoVerify(set, tasks[0]) }); s != 0 || v != 1 {
		t.Fatalf("one miss and two hits counted %d signs, %d verifies", s, v)
	}
}
