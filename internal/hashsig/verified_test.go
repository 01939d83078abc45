package hashsig

import (
	"fmt"
	"sync"
	"testing"
)

// memoVerify is the consensus replicas' shape: a set keyed by MemoKey in
// front of the primitive.
func memoVerify(s *VerifiedSet[Digest], t VerifyTask) bool {
	return s.Verify(t.MemoKey(), func() bool { return t.Key.Verify(t.Digest, t.Sig) })
}

// TestVerifiedSetBounded fills the set far past its budget and checks the
// two-generation eviction keeps residency within max while the hottest
// (recently re-hit) entries survive rotations.
func TestVerifiedSetBounded(t *testing.T) {
	const max = 1 << 10
	s := NewVerifiedSet[Digest](max)
	hot := Sum([]byte("hot-entry"))
	s.Add(hot)
	for i := 0; i < 4*max; i++ {
		if s.Len() > max {
			t.Fatalf("set grew to %d entries, budget is %d", s.Len(), max)
		}
		s.Add(Sum([]byte(fmt.Sprintf("cold-%d", i))))
		// Refresh the hot entry every few inserts: a prev-generation hit
		// must promote it back into cur so it outlives rotations.
		if i%64 == 0 && !s.Has(hot) {
			t.Fatalf("hot entry evicted after %d inserts despite refreshes", i)
		}
	}
	if s.Len() > max {
		t.Fatalf("final residency %d exceeds budget %d", s.Len(), max)
	}
	if !s.Has(hot) {
		t.Fatal("hot entry evicted at end")
	}
	// An entry inserted long ago and never re-hit must be gone.
	if s.Has(Sum([]byte("cold-0"))) {
		t.Fatal("ancient cold entry still resident after many rotations")
	}
}

// TestVerifiedSetPrevHitPromotes pins the promotion contract directly:
// rotate cur into prev, then a hit must move the key back into cur so the
// next rotation does not drop it.
func TestVerifiedSetPrevHitPromotes(t *testing.T) {
	s := NewVerifiedSet[Digest](8)
	k := Sum([]byte("promote-me"))
	s.Add(k)
	s.prev, s.cur = s.cur, make(map[Digest]struct{}) // force a rotation
	if !s.Has(k) {
		t.Fatal("prev-generation entry not found")
	}
	if _, ok := s.cur[k]; !ok {
		t.Fatal("prev hit did not promote the entry into cur")
	}
	if s.Len() != 1 {
		t.Fatalf("promoted entry counted %d times", s.Len())
	}
	if s.Has(Sum([]byte("never-added"))) {
		t.Fatal("miss reported as hit")
	}
}

// TestVerifiedSetBindsAllThree: a resident success must not vouch for the
// same digest under different signature bytes or a different key, and a
// failing check is never resident however often it is made.
func TestVerifiedSetBindsAllThree(t *testing.T) {
	a, b := GenerateKeyFromSeed("set-a"), GenerateKeyFromSeed("set-b")
	d := Sum([]byte("message"))
	sig := a.MustSign(d)
	s := NewVerifiedSet[Digest](8)
	good := VerifyTask{Key: a.Public(), Digest: d, Sig: sig}
	if !memoVerify(s, good) || !s.Has(good.MemoKey()) || s.Len() != 1 {
		t.Fatal("valid check not recorded")
	}
	// A second object for the same key is the same member.
	if !s.Has(VerifyTask{Key: a.Public(), Digest: d, Sig: sig.Clone()}.MemoKey()) {
		t.Fatal("membership depends on object identity, not on the triple")
	}
	flipped := sig.Clone()
	flipped[len(flipped)-1] ^= 1
	for name, bad := range map[string]VerifyTask{
		"other key":    {Key: b.Public(), Digest: d, Sig: sig},
		"other sig":    {Key: a.Public(), Digest: d, Sig: flipped},
		"other digest": {Key: a.Public(), Digest: Sum([]byte("other")), Sig: sig},
		"nil key":      {Digest: d, Sig: sig},
	} {
		for round := 0; round < 2; round++ {
			if memoVerify(s, bad) {
				t.Fatalf("%s: accepted on round %d with the honest triple resident", name, round)
			}
			if s.Has(bad.MemoKey()) || s.Len() != 1 {
				t.Fatalf("%s: a failed check became resident", name)
			}
		}
	}
}

// TestVerifiedSetConcurrent hammers one set from many goroutines — one hot
// triple plus distinct ones forcing rotations — for the race detector.
func TestVerifiedSetConcurrent(t *testing.T) {
	key := GenerateKeyFromSeed("set-concurrent")
	pub := key.Public()
	d := Sum([]byte("hot"))
	hot := VerifyTask{Key: pub, Digest: d, Sig: key.MustSign(d)}
	s := NewVerifiedSet[Digest](16)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !memoVerify(s, hot) {
					t.Error("hot triple rejected")
					return
				}
				s.Add(Sum([]byte(fmt.Sprintf("cold-%d-%d", g, i))))
				if n := s.Len(); n > 16 {
					t.Errorf("residency %d exceeds budget 16", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
