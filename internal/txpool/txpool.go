// Package txpool is the batching transaction pool that sits between the
// client submission RPC and the Propose loop; every replica keeps one, of
// its clients' requests and those its peers forwarded. It accepts client
// requests concurrently, deduplicates them by request hash, keeps each
// sender's requests ordered by request number, and hands the proposer
// bounded batches. The pool carries each request's hash beside it, from the
// submission that pooled it to the proposer that drains it, so the node
// hashes a request once and reuses that hash to park, answer and forget it.
// The pool is bounded: when it is full Add reports ErrFull, which the RPC
// surfaces to the client as backpressure rather than queueing without limit
// (the paper's clients resubmit with backoff).
//
// The pool never inspects request semantics — ordering is per sender
// ⟨author, reqno⟩, matching the ledger's uniqueness rule for client
// requests, so a client streaming pipelined submissions sees them proposed
// in the order it numbered them, even when RPC goroutines race.
package txpool

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

var (
	// ErrFull reports a pool at capacity; callers should apply backpressure.
	ErrFull = errors.New("txpool: pool full")
	// ErrDuplicate reports a request already pooled or recently drained.
	ErrDuplicate = errors.New("txpool: duplicate request")
	// ErrTooLarge reports a request body over the ledger ingress cap.
	ErrTooLarge = errors.New("txpool: request body exceeds cap")
)

// Config parameterizes a Pool.
type Config struct {
	// Capacity bounds pooled requests across all senders. 0 means
	// DefaultCapacity.
	Capacity int
}

// DefaultCapacity bounds the pool when the caller does not say otherwise:
// four proposal windows of full batches at a node's defaults (a window of
// 4 instances of 256 requests).
const DefaultCapacity = 4096

// seenBudget bounds the two-generation drained-request memo. Eviction only
// weakens duplicate suppression for very old retries — the ledger records
// the duplicate ⟨t,i⟩ visibly, it does not double-execute silently.
const seenBudget = 1 << 16

// Hash identifies a request for deduplication: the digest of its full wire
// encoding, so two requests differing in any field (author, reqno, body,
// governance flag) never collide. A replica computes it once per request —
// at submission on the primary (then carried in Pooled), per committed
// entry on a backup. The encoding is assembled in a stack array, so a body
// of up to about 200 bytes costs no allocation; a larger one spills.
func Hash(rq *ledger.Request) hashsig.Digest {
	var buf [256]byte
	return hashsig.Sum(ledger.EncodeRequest(buf[:0], rq))
}

// Pooled is a pooled request and its Hash.
type Pooled struct {
	Req  ledger.Request
	Hash hashsig.Digest
}

// sender is one author's pending queue, kept sorted by ReqNo ascending.
type sender struct {
	author hashsig.Digest
	reqs   []Pooled
}

// Pool is the batching transaction pool. Safe for concurrent use: RPC
// handler goroutines Add while the node's runtime loop drains NextBatch.
type Pool struct {
	mu      sync.Mutex
	cap     int
	n       int
	senders map[hashsig.Digest]*sender
	order   []hashsig.Digest                  // round-robin arrival order of active senders
	next    int                               // round-robin cursor into order
	pooled  map[hashsig.Digest]hashsig.Digest // request hash -> author
	// seenCur and seenPrev are the drained/committed memo, current and
	// previous generation: a drained request maps to false, a committed one
	// to true.
	seenCur  map[hashsig.Digest]bool
	seenPrev map[hashsig.Digest]bool
}

// New builds an empty pool.
func New(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Pool{
		cap:      cfg.Capacity,
		senders:  make(map[hashsig.Digest]*sender),
		pooled:   make(map[hashsig.Digest]hashsig.Digest),
		seenCur:  make(map[hashsig.Digest]bool),
		seenPrev: make(map[hashsig.Digest]bool),
	}
}

// Len reports pooled requests.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Pooled reports whether the request with hash h is pooled: added and not
// yet drained by NextBatch.
func (p *Pool) Pooled(h hashsig.Digest) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.pooled[h]
	return ok
}

// Requests returns the pooled requests in a deterministic order: sender by
// sender in rotation order, each sender's by ReqNo.
func (p *Pool) Requests() []Pooled {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Pooled, 0, p.n)
	for _, author := range p.order {
		if s := p.senders[author]; s != nil {
			out = append(out, s.reqs...)
		}
	}
	return out
}

// Add pools a request: AddHashed with its Hash.
func (p *Pool) Add(rq ledger.Request) error { return p.AddHashed(rq, Hash(&rq)) }

// AddHashed pools a request whose Hash the caller computed as h. It rejects
// oversized bodies (ErrTooLarge), exact duplicates of pooled or recently
// drained requests (ErrDuplicate), and everything when at capacity
// (ErrFull). The request is copied shallowly; the caller must not mutate
// rq.Body afterwards.
func (p *Pool) AddHashed(rq ledger.Request, h hashsig.Digest) error {
	if len(rq.Body) > ledger.MaxRequestLen {
		return ErrTooLarge
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pooled[h]; ok || p.seen(h) {
		return ErrDuplicate
	}
	if p.n >= p.cap {
		return ErrFull
	}
	s := p.senders[rq.Author]
	if s == nil {
		s = &sender{author: rq.Author}
		p.senders[rq.Author] = s
		p.order = append(p.order, rq.Author)
	}
	// Insert keeping the sender's queue sorted by ReqNo: pipelined RPC
	// goroutines may land out of order, but the proposer must see each
	// sender's numbering ascend.
	i := sort.Search(len(s.reqs), func(i int) bool { return s.reqs[i].Req.ReqNo >= rq.ReqNo })
	s.reqs = append(s.reqs, Pooled{})
	copy(s.reqs[i+1:], s.reqs[i:])
	s.reqs[i] = Pooled{Req: rq, Hash: h}
	p.pooled[h] = rq.Author
	p.n++
	return nil
}

// maxBatchBytes bounds one NextBatch by size, charging each request its body
// plus entryOverhead for the entry fields and length prefixes the ledger
// wraps around it. Half of wire.MaxChunkLen: the batch's encoding, which a
// pre-prepare frame and a sync batch chunk both carry whole, stays within the
// caps their readers apply however many requests the batch holds.
const (
	maxBatchBytes = wire.MaxChunkLen / 2
	entryOverhead = 256
)

// NextBatch drains up to max requests for proposal, round-robin across
// senders, each sender's requests in ReqNo order, and stops before the
// batch's bodies pass maxBatchBytes (the first request always goes: Add caps
// a body well below it). Drained requests move to the seen memo so a client
// retry of an in-flight request is suppressed. Each comes with the hash it
// was pooled under. The result is allocated once, for the requests it can
// hold, min(max, Len()); only the byte budget leaves it short. Returns nil
// when the pool is empty.
func (p *Pool) NextBatch(max int) []Pooled {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	out := make([]Pooled, 0, min(max, p.n))
	size := 0
	// The cursor r walks the rotation and w trails it: a sender r passes
	// with requests left is copied down to w, a drained one is not, and the
	// unwalked tail closes up once, below.
	w, r := p.next, p.next
	for len(out) < max && p.n > 0 {
		if r >= len(p.order) {
			p.order = p.order[:w]
			w, r = 0, 0
		}
		author := p.order[r]
		s := p.senders[author]
		if s == nil || len(s.reqs) == 0 {
			// A drained sender leaves the rotation.
			delete(p.senders, author)
			r++
			continue
		}
		pr := s.reqs[0]
		size += len(pr.Req.Body) + entryOverhead
		if len(out) > 0 && size > maxBatchBytes {
			break
		}
		s.reqs = s.reqs[1:]
		delete(p.pooled, pr.Hash)
		p.markSeen(pr.Hash, false)
		p.n--
		out = append(out, pr)
		p.order[w] = author
		w, r = w+1, r+1
	}
	if w < r {
		p.order = append(p.order[:w], p.order[r:]...)
	}
	p.next = w
	return out
}

// Observe records committed request hashes (e.g. a batch's, whoever
// proposed it) so client retries of them are suppressed like drained
// requests, and drops their pooled copies. A batch's hashes are recorded
// under one lock.
func (p *Pool) Observe(hs ...hashsig.Digest) { p.take(true, hs) }

// Take drops the pooled copies of hs and records them drained, as NextBatch
// does: a proposal other than one NextBatch cut carries them.
func (p *Pool) Take(hs ...hashsig.Digest) { p.take(false, hs) }

func (p *Pool) take(committed bool, hs []hashsig.Digest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hs {
		p.markSeen(h, committed)
		p.remove(h)
	}
}

// Drop removes the pooled copy of request h, if any, and not its memo: a
// later submission of h pools again.
func (p *Pool) Drop(h hashsig.Digest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.remove(h)
}

// remove takes h's pooled copy out of its sender's queue; an emptied sender
// leaves the rotation when NextBatch passes it.
func (p *Pool) remove(h hashsig.Digest) {
	author, ok := p.pooled[h]
	if !ok {
		return
	}
	s := p.senders[author]
	i := slices.IndexFunc(s.reqs, func(pr Pooled) bool { return pr.Hash == h })
	s.reqs = slices.Delete(s.reqs, i, i+1)
	delete(p.pooled, h)
	p.n--
}

// Forget drops a drained request from the memo unless it was observed
// committed: the proposal that drained it is gone without committing it,
// so a client's retry must be pooled again rather than refused as a
// duplicate.
func (p *Pool) Forget(h hashsig.Digest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seenCur[h] && !p.seenPrev[h] {
		delete(p.seenCur, h)
		delete(p.seenPrev, h)
	}
}

func (p *Pool) seen(h hashsig.Digest) bool {
	_, cur := p.seenCur[h]
	_, prev := p.seenPrev[h]
	return cur || prev
}

// markSeen records h in the current generation, where committed stays
// true once set. A full generation retires the previous one, whose map is
// cleared and reused as the next current one.
func (p *Pool) markSeen(h hashsig.Digest, committed bool) {
	if len(p.seenCur) >= seenBudget/2 {
		clear(p.seenPrev)
		p.seenPrev, p.seenCur = p.seenCur, p.seenPrev
	}
	if committed {
		p.seenCur[h] = true
	} else if _, ok := p.seenCur[h]; !ok {
		p.seenCur[h] = false
	}
}
