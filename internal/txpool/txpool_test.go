package txpool

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

func req(author hashsig.Digest, n uint64) ledger.Request {
	return ledger.Request{Author: author, ReqNo: n, Body: []byte(fmt.Sprintf("body-%d", n))}
}

// TestPerSenderOrdering adds one sender's requests out of order and checks
// the drain sees them in ascending ReqNo.
func TestPerSenderOrdering(t *testing.T) {
	p := New(Config{})
	a := hashsig.Sum([]byte("a"))
	for _, n := range []uint64{3, 1, 5, 2, 4} {
		if err := p.Add(req(a, n)); err != nil {
			t.Fatal(err)
		}
	}
	got := p.NextBatch(10)
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5", len(got))
	}
	for i, pr := range got {
		if pr.Req.ReqNo != uint64(i+1) {
			t.Fatalf("position %d has ReqNo %d; order not ascending", i, pr.Req.ReqNo)
		}
	}
}

// TestRoundRobinFairness checks one chatty sender cannot starve another:
// a batch drawn from two active senders interleaves them.
func TestRoundRobinFairness(t *testing.T) {
	p := New(Config{})
	a, b := hashsig.Sum([]byte("a")), hashsig.Sum([]byte("b"))
	for n := uint64(1); n <= 8; n++ {
		if err := p.Add(req(a, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(req(b, 1)); err != nil {
		t.Fatal(err)
	}
	got := p.NextBatch(4)
	var sawB bool
	for _, pr := range got {
		if pr.Req.Author == b {
			sawB = true
		}
	}
	if !sawB {
		t.Fatal("sender b starved out of a 4-request batch by sender a's backlog")
	}
}

// TestDedupAndSeenMemo: a pooled duplicate and a retry of a drained
// request are both rejected; Observe suppresses externally committed
// hashes too. Pooled tells the first apart from the other two, and Forget
// readmits only the drained one.
func TestDedupAndSeenMemo(t *testing.T) {
	p := New(Config{})
	a := hashsig.Sum([]byte("a"))
	r1 := req(a, 1)
	if err := p.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(r1); !errors.Is(err, ErrDuplicate) || !p.Pooled(Hash(&r1)) {
		t.Fatalf("pooled duplicate: %v, pooled %v", err, p.Pooled(Hash(&r1)))
	}
	p.NextBatch(1)
	if err := p.Add(r1); !errors.Is(err, ErrDuplicate) || p.Pooled(Hash(&r1)) {
		t.Fatalf("retry of drained request: %v, pooled %v", err, p.Pooled(Hash(&r1)))
	}
	r2 := req(a, 2)
	p.Observe(Hash(&r2))
	if err := p.Add(r2); !errors.Is(err, ErrDuplicate) || p.Pooled(Hash(&r2)) {
		t.Fatalf("retry of observed request: %v, pooled %v", err, p.Pooled(Hash(&r2)))
	}
	// A genuinely new request is still accepted.
	if err := p.Add(req(a, 3)); err != nil {
		t.Fatal(err)
	}
	// Forget readmits a drained request whose proposal is gone, but never
	// one observed committed — not even one drained first.
	p.Forget(Hash(&r1))
	if err := p.Add(r1); err != nil {
		t.Fatalf("retry of a forgotten drained request: %v", err)
	}
	p.NextBatch(2)
	p.Observe(Hash(&r1))
	p.Forget(Hash(&r1))
	p.Forget(Hash(&r2))
	for _, r := range []ledger.Request{r1, r2} {
		if err := p.Add(r); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("retry of committed request %d after Forget: %v", r.ReqNo, err)
		}
	}
}

// TestBoundedBackpressure: the pool stops at capacity with ErrFull and
// frees space as batches drain.
func TestBoundedBackpressure(t *testing.T) {
	p := New(Config{Capacity: 3})
	a := hashsig.Sum([]byte("a"))
	for n := uint64(1); n <= 3; n++ {
		if err := p.Add(req(a, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(req(a, 4)); !errors.Is(err, ErrFull) {
		t.Fatalf("over capacity: %v", err)
	}
	if got := p.NextBatch(2); len(got) != 2 {
		t.Fatalf("drained %d, want 2", len(got))
	}
	if err := p.Add(req(a, 4)); err != nil {
		t.Fatalf("add after drain: %v", err)
	}
	if p.Len() != 2 {
		t.Fatalf("len %d, want 2", p.Len())
	}
}

// TestTooLarge: bodies over the ledger ingress cap never enter the pool.
func TestTooLarge(t *testing.T) {
	p := New(Config{})
	a := hashsig.Sum([]byte("a"))
	big := ledger.Request{Author: a, ReqNo: 1, Body: make([]byte, ledger.MaxRequestLen+1)}
	if err := p.Add(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized body: %v", err)
	}
}

// TestNextBatchStopsAtByteBudget: large bodies end a batch before its count
// does, without skipping past the request that would overflow it; small
// bodies never hit the budget.
func TestNextBatchStopsAtByteBudget(t *testing.T) {
	p := New(Config{})
	a, b := hashsig.Sum([]byte("a")), hashsig.Sum([]byte("b"))
	body := make([]byte, ledger.MaxRequestLen) // shared: the pool keeps bodies by reference
	for n := uint64(1); n <= 3; n++ {
		if err := p.Add(ledger.Request{Author: a, ReqNo: n, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for n := uint64(1); n <= 2; n++ {
		if err := p.Add(req(b, n)); err != nil {
			t.Fatal(err)
		}
	}
	// Round robin takes a large and a small request; the next large one
	// would pass the budget, so it opens the following batch.
	for i, want := range [][]hashsig.Digest{{a, b}, {a, b}, {a}} {
		got := p.NextBatch(10)
		size := 0
		for _, pr := range got {
			size += len(pr.Req.Body) + entryOverhead
		}
		if len(got) != len(want) || size > maxBatchBytes {
			t.Fatalf("batch %d: %d requests, %d bytes charged; want %d within %d", i, len(got), size, len(want), maxBatchBytes)
		}
		for j, pr := range got {
			if pr.Req.Author != want[j] {
				t.Fatalf("batch %d position %d from the wrong sender", i, j)
			}
		}
	}
	for n := uint64(3); n < 100; n++ {
		if err := p.Add(req(b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.NextBatch(64); len(got) != 64 {
		t.Fatalf("small bodies: drained %d, want 64", len(got))
	}
}

// TestConcurrentAddDrain races adders against a drainer under -race and
// checks conservation: every accepted request is drained exactly once.
func TestConcurrentAddDrain(t *testing.T) {
	p := New(Config{Capacity: 10000})
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	var accepted sync.Map
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			author := hashsig.Sum([]byte{byte(s)})
			for n := uint64(1); n <= perSender; n++ {
				rq := req(author, n)
				if err := p.Add(rq); err == nil {
					accepted.Store(Hash(&rq), false)
				}
			}
		}(s)
	}
	doneAdd := make(chan struct{})
	done := make(chan struct{})
	var drained []Pooled
	go func() {
		defer close(done)
		for {
			b := p.NextBatch(64)
			drained = append(drained, b...)
			if len(b) == 0 {
				select {
				case <-doneAdd:
					if p.Len() == 0 {
						return
					}
				default:
				}
			}
		}
	}()
	wg.Wait()
	close(doneAdd)
	<-done
	var want int
	accepted.Range(func(k, v any) bool { want++; return true })
	if len(drained) != want {
		t.Fatalf("drained %d, accepted %d", len(drained), want)
	}
	seen := make(map[hashsig.Digest]bool)
	for i := range drained {
		h := drained[i].Hash
		if h != Hash(&drained[i].Req) {
			t.Fatal("a request drained under another request's hash")
		}
		if seen[h] {
			t.Fatal("request drained twice")
		}
		seen[h] = true
	}
}

// hashCases are requests whose encodings sit on both sides of the stack
// array Hash encodes into.
func hashCases() map[string]ledger.Request {
	a := hashsig.Sum([]byte("a"))
	return map[string]ledger.Request{
		"empty":      {},
		"governance": {Governance: true, Author: a, ReqNo: 7, Body: []byte("add member")},
		"64-byte":    {Author: a, ReqNo: 1, Body: make([]byte, 64)},
		"300-byte":   {Author: a, ReqNo: 2, Body: make([]byte, 300)},
	}
}

// TestHashIsTheEncodingDigest: Hash is the digest of the request's wire
// encoding whether that encoding fits Hash's stack array or spills.
func TestHashIsTheEncodingDigest(t *testing.T) {
	for name, rq := range hashCases() {
		if got, want := Hash(&rq), hashsig.Sum(ledger.EncodeRequest(nil, &rq)); got != want {
			t.Errorf("%s: Hash %v, digest of the encoding %v", name, got, want)
		}
	}
}

// TestHashAllocatesNothing pins Hash of a small request at zero heap
// allocations, as ledger's TestDigestsAllocateNothing does the commit
// path's digests: the encoding is assembled in a stack array.
func TestHashAllocatesNothing(t *testing.T) {
	rq := hashCases()["64-byte"]
	if got := testing.AllocsPerRun(1000, func() { Hash(&rq) }); got != 0 {
		t.Fatalf("Hash of a 64-byte body: %.1f allocations per call, want 0", got)
	}
}

// TestObserveDropsPooledCopy: a request that committed in another
// replica's batch leaves the pool when it is observed, from its sender's
// queue and from the count, and stays refused; the rest of the pool is
// untouched.
func TestObserveDropsPooledCopy(t *testing.T) {
	p := New(Config{})
	a, b := hashsig.Sum([]byte("a")), hashsig.Sum([]byte("b"))
	r1 := req(a, 1)
	if err := p.Add(r1); err != nil {
		t.Fatal(err)
	}
	p.Observe(Hash(&r1))
	if l, batch := p.Len(), p.NextBatch(8); l != 0 || batch != nil || p.Pooled(Hash(&r1)) {
		t.Fatalf("after Observe: Len %d, NextBatch %d requests, pooled %v; want an empty pool", l, len(batch), p.Pooled(Hash(&r1)))
	}
	if err := p.Add(r1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmission of the observed request: %v, want duplicate", err)
	}
	for _, r := range []ledger.Request{req(a, 2), req(a, 3), req(b, 1), req(a, 4)} {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	mid := req(a, 3)
	p.Observe(Hash(&mid))
	var got []uint64
	for _, pr := range p.NextBatch(8) {
		got = append(got, pr.Req.ReqNo)
	}
	if fmt.Sprint(got) != "[2 1 4]" || p.Len() != 0 {
		t.Fatalf("drained reqnos %v (Len %d after), want [2 1 4] and 0", got, p.Len())
	}
}

// TestDropKeepsTheMemo: Drop removes one pooled copy and leaves the memo:
// the dropped request pools again, a drained one stays refused.
func TestDropKeepsTheMemo(t *testing.T) {
	p := New(Config{})
	a := hashsig.Sum([]byte("a"))
	drained, pooled := req(a, 1), req(a, 2)
	for _, r := range []ledger.Request{drained, pooled} {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	p.NextBatch(1)
	p.Drop(Hash(&drained))
	p.Drop(Hash(&pooled))
	if l, batch := p.Len(), p.NextBatch(8); l != 0 || batch != nil || len(p.Requests()) != 0 {
		t.Fatalf("after Drop: Len %d, NextBatch %d requests; want an empty pool", l, len(batch))
	}
	if err := p.Add(drained); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("drained request after Drop: %v, want duplicate", err)
	}
	if err := p.Add(pooled); err != nil {
		t.Fatalf("dropped request: %v, want it pooled again", err)
	}
}

// TestTakeMarksDrained: Take removes pooled copies and records them
// drained, as a NextBatch drain does: they stay refused until a Forget.
func TestTakeMarksDrained(t *testing.T) {
	p := New(Config{})
	a := hashsig.Sum([]byte("a"))
	taken, kept := req(a, 1), req(a, 2)
	for _, r := range []ledger.Request{taken, kept} {
		if err := p.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	p.Take(Hash(&taken))
	if err := p.Add(taken); p.Len() != 1 || !errors.Is(err, ErrDuplicate) {
		t.Fatalf("after Take: Len %d, Add %v; want 1 and duplicate", p.Len(), err)
	}
	p.Forget(Hash(&taken))
	if err := p.Add(taken); err != nil {
		t.Fatalf("taken request after Forget: %v, want it pooled again", err)
	}
	if got := p.Requests(); len(got) != 2 || got[0].Hash != Hash(&taken) || got[1].Hash != Hash(&kept) {
		t.Fatalf("Requests returned %d, want both in ReqNo order", len(got))
	}
}
