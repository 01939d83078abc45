// Package txpool is the batching transaction pool that sits between the
// client submission RPC and the primary's Propose loop. It accepts client
// requests concurrently, deduplicates them by request hash, keeps each
// sender's requests ordered by request number, and hands the proposer
// bounded batches. The pool is bounded: when it is full Add reports
// ErrFull, which the RPC surfaces to the client as backpressure rather
// than queueing without limit (the paper's clients resubmit with backoff).
//
// The pool never inspects request semantics — ordering is per sender
// ⟨author, reqno⟩, matching the ledger's uniqueness rule for client
// requests, so a client streaming pipelined submissions sees them proposed
// in the order it numbered them, even when RPC goroutines race.
package txpool

import (
	"errors"
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
// eight proposal windows of full batches at a node's defaults (a window of
// 4 instances of 128 requests).
const DefaultCapacity = 4096

// seenBudget bounds the two-generation drained-request memo. Eviction only
// weakens duplicate suppression for very old retries — the ledger records
// the duplicate ⟨t,i⟩ visibly, it does not double-execute silently.
const seenBudget = 1 << 16

// Hash identifies a request for deduplication: the digest of its full wire
// encoding, so two requests differing in any field (author, reqno, body,
// governance flag) never collide.
func Hash(rq *ledger.Request) hashsig.Digest {
	return hashsig.Sum(ledger.EncodeRequest(nil, rq))
}

// sender is one author's pending queue, kept sorted by ReqNo ascending.
type sender struct {
	author hashsig.Digest
	reqs   []ledger.Request
}

// Pool is the batching transaction pool. Safe for concurrent use: RPC
// handler goroutines Add while the node's runtime loop drains NextBatch.
type Pool struct {
	mu      sync.Mutex
	cap     int
	n       int
	senders map[hashsig.Digest]*sender
	order   []hashsig.Digest // round-robin arrival order of active senders
	next    int              // round-robin cursor into order
	pooled  map[hashsig.Digest]bool
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
		cap:     cfg.Capacity,
		senders: make(map[hashsig.Digest]*sender),
		pooled:  make(map[hashsig.Digest]bool),
		seenCur: make(map[hashsig.Digest]bool),
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
	return p.pooled[h]
}

// Add pools a request. It rejects oversized bodies (ErrTooLarge), exact
// duplicates of pooled or recently drained requests (ErrDuplicate), and
// everything when at capacity (ErrFull). The request is copied shallowly;
// the caller must not mutate rq.Body afterwards.
func (p *Pool) Add(rq ledger.Request) error {
	if len(rq.Body) > ledger.MaxRequestLen {
		return ErrTooLarge
	}
	h := Hash(&rq)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pooled[h] || p.seen(h) {
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
	i := sort.Search(len(s.reqs), func(i int) bool { return s.reqs[i].ReqNo >= rq.ReqNo })
	s.reqs = append(s.reqs, ledger.Request{})
	copy(s.reqs[i+1:], s.reqs[i:])
	s.reqs[i] = rq
	p.pooled[h] = true
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
// retry of an in-flight request is suppressed. Returns nil when the pool is
// empty.
func (p *Pool) NextBatch(max int) []ledger.Request {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	var out []ledger.Request
	size := 0
	for len(out) < max && p.n > 0 {
		if p.next >= len(p.order) {
			p.next = 0
		}
		s := p.senders[p.order[p.next]]
		if s == nil || len(s.reqs) == 0 {
			// Compact a drained sender out of the rotation.
			delete(p.senders, p.order[p.next])
			p.order = append(p.order[:p.next], p.order[p.next+1:]...)
			continue
		}
		rq := s.reqs[0]
		size += len(rq.Body) + entryOverhead
		if len(out) > 0 && size > maxBatchBytes {
			break
		}
		s.reqs = s.reqs[1:]
		h := Hash(&rq)
		delete(p.pooled, h)
		p.markSeen(h, false)
		p.n--
		out = append(out, rq)
		p.next++
	}
	return out
}

// Observe records an externally committed request hash (e.g. a batch a
// backup executed from a pre-prepare) so client retries of it are
// suppressed like drained requests.
func (p *Pool) Observe(h hashsig.Digest) {
	p.mu.Lock()
	p.markSeen(h, true)
	p.mu.Unlock()
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

func (p *Pool) markSeen(h hashsig.Digest, committed bool) {
	if len(p.seenCur) >= seenBudget/2 {
		p.seenPrev = p.seenCur
		p.seenCur = make(map[hashsig.Digest]bool)
	}
	p.seenCur[h] = committed || p.seenCur[h]
}
