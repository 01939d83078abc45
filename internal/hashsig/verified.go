package hashsig

import "sync"

// VerifiedSet remembers signature checks that succeeded, so a fact this
// process has already established — "this key signed this statement with
// these signature bytes" — is not re-derived through Ed25519. It is the
// repo's one such set: the ledger keeps an instance behind BatchHeader.Verify
// (64 receipts cut from one batch share one signed header) and every
// consensus replica keeps its own for protocol messages. Signing is
// deterministic, so a statement its signer issues twice is the same member
// both times.
//
// A member is a K that names the whole check: the signer's key, what was
// signed, and the exact signature bytes. Binding all three is what makes a
// hit mean "this exact check succeeded here before" — anything less would
// let one key's valid signature vouch for other bytes, or for another key,
// over the same statement. The caller chooses the form: consensus replicas
// use MemoKey, the digest of the three; the ledger keys headers by the
// checked fields themselves, so a hit is an exact comparison that hashes
// nothing. Either way the set holds values, never the caller's signature
// slice. Only successes are ever added: a failure says nothing about a
// different signature from the same signer, and caching it would let one bad
// message poison a good one.
//
// Residency is bounded by two generations: entries land in cur; when cur
// fills its half of the budget it becomes prev and the old prev is dropped.
// A hit in prev promotes the entry back into cur, so signatures still
// circulating survive rotations while one-shot traffic ages out. Eviction
// only re-imposes a verification, never changes a verdict.
//
// A VerifiedSet is safe for concurrent use. The lock is held for a map
// probe; concurrent misses on one key each run the check (at most
// GOMAXPROCS of them), which is cheaper than coordinating them.
type VerifiedSet[K comparable] struct {
	mu        sync.Mutex
	half      int
	cur, prev map[K]struct{}
}

// NewVerifiedSet returns an empty set holding at most max entries across
// both generations.
func NewVerifiedSet[K comparable](max int) *VerifiedSet[K] {
	return &VerifiedSet[K]{half: max / 2, cur: make(map[K]struct{})}
}

// MemoKey identifies the check t performs as a VerifiedSet[Digest] member:
// the digest of (signed digest, signature bytes, key ID). A digest alone
// would let a valid signature by one key vouch for different signature
// bytes, or for another key, over the same digest. A nil key contributes the
// zero ID; it never verifies, so its MemoKey is never a member.
func (t VerifyTask) MemoKey() Digest {
	var id Digest
	if t.Key != nil {
		id = t.Key.id
	}
	return SumMany(t.Digest[:], t.Sig, id[:])
}

// Has reports whether k was added and is still resident, refreshing its
// generation on a prev-hit so repeated lookups keep it resident.
func (s *VerifiedSet[K]) Has(k K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cur[k]; ok {
		return true
	}
	if _, ok := s.prev[k]; ok {
		s.add(k)
		return true
	}
	return false
}

// Add records a successful verification.
func (s *VerifiedSet[K]) Add(k K) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.add(k)
}

func (s *VerifiedSet[K]) add(k K) {
	if _, ok := s.cur[k]; ok {
		return
	}
	if len(s.cur) >= s.half {
		s.prev = s.cur
		s.cur = make(map[K]struct{})
	}
	delete(s.prev, k) // a promoted entry moves; generations stay disjoint
	s.cur[k] = struct{}{}
}

// Verify is check behind the set: a resident k returns true without running
// check, a miss runs it and records k if it succeeds. k must name exactly
// the check that check performs.
func (s *VerifiedSet[K]) Verify(k K, check func() bool) bool {
	if s.Has(k) {
		return true
	}
	if !check() {
		return false
	}
	s.Add(k)
	return true
}

// Len reports resident entries across both generations.
func (s *VerifiedSet[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cur) + len(s.prev)
}
