package ledger

import (
	"runtime"
	"sync"

	"iaccf/internal/merkle"
)

// entryHasher computes entry digests — and their merkle leaf hashes —
// concurrently with the execution loop that produces the entries. On a
// single-CPU process (or a tiny batch) it degrades to hashing inline at
// submit time — the pipeline would only add channel traffic. Digests and
// leaf hashes land in the scratch at the submitted index; the caller must
// wait() before reading any of them. A nil *entryHasher hashes nothing:
// the audit's checker digests entries itself (core.check).
//
// Leaf hashes are computed here because both trees need the same value:
// the history tree M and the batch tree G each commit to
// LeafHash(Digest(entry)). Hashing it once in the pipeline removes two
// serial SHA passes per entry from the roll-up stage.
type entryHasher struct {
	s      *execScratch
	jobs   chan hashJob
	wg     sync.WaitGroup
	inline bool
	closed bool
}

// hashJob hands one completed entry from the execution stage to the hashing
// stage. The pointer is stable: callers allocate the entries slice with its
// final capacity up front, so appends never move the backing array.
type hashJob struct {
	idx int
	e   *Entry
}

// newEntryHasher sizes the hashing stage for up to maxEntries entries.
func newEntryHasher(s *execScratch, maxEntries int) *entryHasher {
	h := &entryHasher{s: s}
	workers := runtime.GOMAXPROCS(0) - 1
	if workers > maxHashWorkers {
		workers = maxHashWorkers
	}
	if workers < 1 || maxEntries < minPipelinedEntries {
		h.inline = true
		return h
	}
	h.jobs = make(chan hashJob, maxEntries)
	h.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer h.wg.Done()
			for j := range h.jobs {
				h.s.hash(j.idx, j.e)
			}
		}()
	}
	return h
}

// hash computes the digest (and leaf hash) of one entry into slot idx.
func (s *execScratch) hash(idx int, e *Entry) {
	d := e.Digest()
	s.digests[idx] = d
	s.leaves[idx] = merkle.LeafHash(d)
}

// submit hands entry e (stored at idx) to the hashing stage.
func (h *entryHasher) submit(idx int, e *Entry) {
	switch {
	case h == nil:
		return
	case h.inline:
		h.s.hash(idx, e)
		return
	}
	h.jobs <- hashJob{idx: idx, e: e}
}

// wait blocks until every submitted digest is computed. Idempotent, so it
// can both run deferred (releasing workers if the execution loop panics)
// and be called explicitly before the digests are read.
func (h *entryHasher) wait() {
	if h == nil || h.inline || h.closed {
		return
	}
	h.closed = true
	close(h.jobs)
	h.wg.Wait()
}

const (
	// maxHashWorkers bounds the entry-digest pipeline; hashing saturates
	// long before the core count on wide machines.
	maxHashWorkers = 4
	// minPipelinedEntries gates the pipeline: tiny batches hash inline.
	minPipelinedEntries = 32
)
