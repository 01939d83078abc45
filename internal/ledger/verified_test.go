package ledger

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"iaccf/internal/hashsig"
)

// execBatch executes one n-request batch on a fresh ledger under
// key and returns its receipts, unchecked.
func execBatch(t *testing.T, key *hashsig.PrivateKey, tag string, n int) []Receipt {
	t.Helper()
	l, err := New(Config{Key: key, App: KVApp{}})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Author: hashsig.Sum([]byte(fmt.Sprintf("%s/client-%d", tag, i))),
			ReqNo:  uint64(i),
			Body:   EncodeOps([]Op{{Key: fmt.Sprintf("%s/k%d", tag, i), Val: []byte("v")}}),
		}
	}
	_, receipts, err := l.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return receipts
}

// warmBatch is execBatch with every receipt verified, so the header's
// check is resident in verifiedHeaders before the caller starts mutating.
func warmBatch(t *testing.T, key *hashsig.PrivateKey, tag string, n int) []Receipt {
	t.Helper()
	receipts := execBatch(t, key, tag, n)
	pub := key.Public()
	for i := range receipts {
		if !receipts[i].Verify(pub) {
			t.Fatalf("honest receipt %d does not verify", i)
		}
	}
	if !headerResident(&receipts[0].Header, pub) {
		t.Fatal("verified header is not resident in the set")
	}
	return receipts
}

func headerResident(h *BatchHeader, pub *hashsig.PublicKey) bool {
	k, ok := h.checkOf(pub)
	return ok && verifiedHeaders.Has(k)
}

// TestReceiptVerifyWarmSetFailsClosed: with the honest header's check
// resident, changing any one component of (key, signed fields — envelope
// or content — signature bytes) — or the path under the untouched header — must still be rejected,
// twice over, and must never become resident. TestReceiptNegativeTable's
// own table runs warm too: it verifies its honest receipts first.
func TestReceiptVerifyWarmSetFailsClosed(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/signer")
	otherPub := hashsig.GenerateKeyFromSeed("warm-set/other-replica").Public()
	receipts := warmBatch(t, key, "warm-set", 12)
	pub := key.Public()

	r, other := &receipts[2], &receipts[3]
	if len(r.Path) < 2 {
		t.Fatal("receipt has no two-node path")
	}

	type mutation struct {
		name string
		pub  *hashsig.PublicKey
		mut  func(x *Receipt)
	}
	cases := []mutation{
		{"another replica's key", otherPub, func(*Receipt) {}},
		{"nil key", nil, func(*Receipt) {}},
		{"empty signature", pub, func(x *Receipt) { x.Header.Sig = nil }},
		{"view", pub, func(x *Receipt) { x.Header.View++ }},
		{"primary", pub, func(x *Receipt) { x.Header.Primary++ }},
		{"nonce commitment", pub, func(x *Receipt) { x.Header.NonceCommit[0] ^= 1 }},
		{"seq", pub, func(x *Receipt) { x.Header.Seq++ }},
		{"hist size", pub, func(x *Receipt) { x.Header.HistSize++ }},
		{"M root", pub, func(x *Receipt) { x.Header.MRoot[0] ^= 1 }},
		{"G root", pub, func(x *Receipt) { x.Header.GRoot[31] ^= 1 }},
		{"G size", pub, func(x *Receipt) { x.Header.GSize++ }},
		{"checkpoint digest", pub, func(x *Receipt) { x.Header.CkptDigest[0] ^= 1 }},
		{"truncated path", pub, func(x *Receipt) { x.Path = x.Path[:len(x.Path)-1] }},
		{"spliced path", pub, func(x *Receipt) { x.Path = other.Path }},
		{"spliced position", pub, func(x *Receipt) { x.Index = other.Index }},
		{"tampered entry", pub, func(x *Receipt) { x.Entry.ReqNo++ }},
	}
	for i := range r.Header.Sig {
		cases = append(cases, mutation{fmt.Sprintf("signature byte %d", i), pub, func(x *Receipt) {
			x.Header.Sig = x.Header.Sig.Clone()
			x.Header.Sig[i] ^= 0x01
		}})
	}
	resident := verifiedHeaders.Len()
	for _, tc := range cases {
		mutated := *r
		tc.mut(&mutated)
		for round := 1; round <= 2; round++ {
			if mutated.Verify(tc.pub) {
				t.Errorf("%s: accepted on check %d with the honest header resident", tc.name, round)
			}
		}
	}
	// Nothing above can evict, so an unchanged count means no failed check
	// became resident.
	if got := verifiedHeaders.Len(); got != resident {
		t.Errorf("failed checks changed residency: %d -> %d", resident, got)
	}
	if !r.Verify(pub) {
		t.Fatal("anchor receipt stopped verifying")
	}
}

// TestReceiptVerifyWarmIsAComparison: with its header resident, checking a
// receipt runs no Ed25519 and allocates nothing — the header check is a
// comparison, and the audit path is hashed on the stack
// (merkle.VerifyPath). BenchmarkReceiptVerify/warm, gated at 0 allocs/op,
// prices the same call.
func TestReceiptVerifyWarmIsAComparison(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/comparison")
	pub := key.Public()
	receipts := warmBatch(t, key, "comparison", 16)
	_, v0 := hashsig.Counts()
	for i := range receipts {
		if !receipts[i].Verify(pub) {
			t.Fatalf("honest receipt %d rejected", i)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if !receipts[i%len(receipts)].Verify(pub) {
			t.Fatalf("honest receipt %d rejected", i%len(receipts))
		}
		i++
	})
	if _, v1 := hashsig.Counts(); v1 != v0 {
		t.Errorf("warm checks ran %d signature verifications, want 0", v1-v0)
	}
	if allocs != 0 {
		t.Errorf("a warm receipt check allocates %.1f times, want 0", allocs)
	}
}

// TestHeaderCheckBindsEverySignedField: every BatchHeader field but the
// signature — the envelope's included, and any field added later — changes
// the member a check adds, as do the key and each signature byte. A field
// checkOf forgot would let a resident header vouch for a header that differs
// in it.
func TestHeaderCheckBindsEverySignedField(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/fields")
	pub := key.Public()
	h := execBatch(t, key, "fields", 2)[0].Header
	base, ok := h.checkOf(pub)
	if !ok {
		t.Fatal("honest header has no member")
	}
	differs := func(what string, x *BatchHeader, p *hashsig.PublicKey) {
		t.Helper()
		if k, ok := x.checkOf(p); ok && k == base {
			t.Errorf("%s: not bound by the member", what)
		}
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case name == "Sig":
			case f.Kind() == reflect.Struct:
				walk(f, name+".")
			case f.Kind() == reflect.Array:
				f.Index(0).SetUint(f.Index(0).Uint() ^ 1)
				differs(name, &h, pub)
				f.Index(0).SetUint(f.Index(0).Uint() ^ 1)
			case f.CanUint():
				f.SetUint(f.Uint() ^ 1)
				differs(name, &h, pub)
				f.SetUint(f.Uint() ^ 1)
			default:
				t.Fatalf("field %s of kind %s: extend this test", name, f.Kind())
			}
		}
	}
	walk(reflect.ValueOf(&h).Elem(), "")
	differs("another key", &h, hashsig.GenerateKeyFromSeed("warm-set/fields-other").Public())
	for i := range h.Sig {
		x := h
		x.Sig = h.Sig.Clone()
		x.Sig[i] ^= 1
		differs(fmt.Sprintf("signature byte %d", i), &x, pub)
	}
	if k, _ := h.checkOf(pub); k != base {
		t.Fatal("walk did not restore the header")
	}
}

// TestVerifiedHeadersBounded pushes 4x the budget of distinct members
// through the ledger's own instance: residency stays within the constant,
// and an honest header evicted along the way is simply checked again —
// same verdicts, for it and for a forgery of it.
func TestVerifiedHeadersBounded(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/bounded")
	pub := key.Public()
	r := warmBatch(t, key, "bounded", 4)[0]
	for i := 0; i < 4*maxVerifiedHeaders; i++ {
		verifiedHeaders.Add(headerCheck{seq: uint64(i), gRoot: hashsig.Sum([]byte("distinct-header"))})
		if n := verifiedHeaders.Len(); n > maxVerifiedHeaders {
			t.Fatalf("residency %d exceeds maxVerifiedHeaders %d", n, maxVerifiedHeaders)
		}
	}
	if headerResident(&r.Header, pub) {
		t.Fatal("header survived 4x the budget of one-shot traffic")
	}
	forged := r
	forged.Header.Seq++
	if forged.Verify(pub) || !r.Verify(pub) {
		t.Fatal("eviction changed a verdict")
	}
}

// TestReplayBypassesVerifiedHeaders: the audit policy neither reads nor
// writes the set — a replay is never vouched for by an earlier check, and
// leaves nothing behind for a later one.
func TestReplayBypassesVerifiedHeaders(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/replay")
	l, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := l.ExecuteBatch(benchRequests(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	stream, pub := l.Batches(), key.Public()
	before := verifiedHeaders.Len()
	if _, err := Replay(stream, pub, KVApp{}, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if headerResident(&b.Header, pub) {
			t.Fatalf("Replay left batch %d's header in the set", b.Header.Seq)
		}
	}
	if got := verifiedHeaders.Len(); got != before {
		t.Fatalf("Replay changed residency: %d -> %d", before, got)
	}
	// Plant a member no honest check could have added — batch 2's header
	// under garbage signature bytes — and hand Replay that header: a policy
	// that read the set would take its word.
	forged := *stream[1]
	forged.Header.Sig = bytes.Repeat([]byte("garbage!"), hashsig.SignatureSize/8)
	planted, _ := forged.Header.checkOf(pub)
	verifiedHeaders.Add(planted)
	if !forged.Header.Verify(pub) {
		t.Fatal("setup: planted member not visible through the set")
	}
	tampered := []*Batch{stream[0], &forged, stream[2], stream[3]}
	if _, err := Replay(tampered, pub, KVApp{}, nil); err == nil {
		t.Fatal("Replay took the set's word for a header signature")
	}
}

// TestReceiptVerifyConcurrent is the client library's shape under the race
// detector: 64 goroutines checking the receipts of one batch nobody has
// checked yet (so the first wave misses together and every miss adds the
// same member) while others check batches of their own and a forgery of
// the shared header.
func TestReceiptVerifyConcurrent(t *testing.T) {
	key := hashsig.GenerateKeyFromSeed("warm-set/concurrent")
	pub := key.Public()
	shared := execBatch(t, key, "shared", 64)
	const loners = 8
	own := make([][]Receipt, loners)
	for g := range own {
		own[g] = execBatch(t, key, fmt.Sprintf("loner-%d", g), 2)
	}
	forged := shared[0]
	forged.Header.GSize++

	var wg sync.WaitGroup
	for g := range shared {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range shared {
				if !shared[(g+i)%len(shared)].Verify(pub) {
					t.Errorf("goroutine %d: honest shared receipt rejected", g)
					return
				}
			}
		}(g)
	}
	for g := range own {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !own[g][i%2].Verify(pub) {
					t.Errorf("loner %d: honest receipt rejected", g)
				}
				if forged.Verify(pub) {
					t.Errorf("loner %d: forged header accepted", g)
				}
			}
		}(g)
	}
	wg.Wait()
}
