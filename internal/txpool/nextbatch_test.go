package txpool

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// nextBatchReference is NextBatch as it was when each drained sender was
// cut out of the rotation on its own, shifting every author after it. It is
// the drain order NextBatch must keep.
func nextBatchReference(p *Pool, max int) []Pooled {
	if max <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil
	}
	var out []Pooled
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
		p.next++
	}
	return out
}

// TestNextBatchDrainsLikeTheReference drives NextBatch and the reference
// through the same operations — a layout's initial senders, then Adds from
// new and known senders (drained ones included) and Forgets with re-Adds
// between calls — and demands the same batches, rotation and cursor after
// every call.
func TestNextBatchDrainsLikeTheReference(t *testing.T) {
	for _, lay := range []struct {
		name                    string
		senders, perSender, max int
		body                    int
	}{
		{"many requests per sender", 8, 64, 7, 8},
		{"512 one-request senders", 512, 1, 128, 8},
		{"4096 one-request senders", DefaultCapacity, 1, 128, 8},
		{"batches cut by bytes", 16, 8, 128, ledger.MaxRequestLen / 3},
	} {
		t.Run(lay.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(lay.senders), uint64(lay.max)))
			got, want := New(Config{Capacity: 2 * DefaultCapacity}), New(Config{Capacity: 2 * DefaultCapacity})
			body := make([]byte, lay.body) // shared: the pool keeps bodies by reference
			reqNos := map[int]uint64{}
			var n uint64
			add := func(sender int) {
				reqNos[sender]++
				author := hashsig.Sum([]byte(fmt.Sprintf("sender-%d", sender)))
				rq := ledger.Request{Author: author, ReqNo: reqNos[sender], Body: body}
				n++
				h := uniqueHash(author, n)
				if eg, ew := got.AddHashed(rq, h), want.AddHashed(rq, h); eg != ew {
					t.Fatalf("Add: %v, reference %v", eg, ew)
				}
			}
			for i := range lay.senders {
				for range lay.perSender {
					add(i)
				}
			}
			var drained []Pooled
			for call := 0; got.Len() > 0 || want.Len() > 0; call++ {
				g, w := got.NextBatch(lay.max), nextBatchReference(want, lay.max)
				if !slices.Equal(hashes(g), hashes(w)) {
					t.Fatalf("call %d: drained %d requests, reference %d, or in another order", call, len(g), len(w))
				}
				if !slices.Equal(got.order, want.order) || got.next != want.next || len(got.senders) != len(want.senders) {
					t.Fatalf("call %d: rotation of %d senders at %d (%d live), reference %d at %d (%d live)",
						call, len(got.order), got.next, len(got.senders), len(want.order), want.next, len(want.senders))
				}
				drained = append(drained, g...)
				if call >= 200 {
					continue // no more arrivals: drain to empty
				}
				for range rng.IntN(4) {
					add(rng.IntN(lay.senders + 32))
				}
				if len(drained) > 0 && rng.IntN(2) == 0 {
					pr := drained[rng.IntN(len(drained))]
					got.Forget(pr.Hash)
					want.Forget(pr.Hash)
					if eg, ew := got.AddHashed(pr.Req, pr.Hash), want.AddHashed(pr.Req, pr.Hash); eg != ew {
						t.Fatalf("re-Add after Forget: %v, reference %v", eg, ew)
					}
				}
			}
		})
	}
}

// uniqueHash stands in for Hash where only distinctness matters: the pool
// never recomputes a hash, and a large body is not hashed.
func uniqueHash(author hashsig.Digest, n uint64) hashsig.Digest {
	binary.LittleEndian.PutUint64(author[:], n)
	return author
}

func hashes(ps []Pooled) []hashsig.Digest {
	out := make([]hashsig.Digest, len(ps))
	for i := range ps {
		out[i] = ps[i].Hash
	}
	return out
}

// BenchmarkNextBatch runs a saturated primary's pool: one-request senders
// whose clients resubmit once their batch commits, half of them at once and
// half a batch later. So the cursor meets senders with nothing pooled, cuts
// them out of the rotation, and their late requests rejoin it at the end.
// An op is one NextBatch of 128 plus the resubmissions it lets in.
func BenchmarkNextBatch(b *testing.B) {
	const batch = 128
	for _, senders := range []int{512, DefaultCapacity} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			p := New(Config{Capacity: senders})
			var n uint64
			add := func(author hashsig.Digest) {
				n++
				if err := p.AddHashed(ledger.Request{Author: author, ReqNo: n}, uniqueHash(author, n)); err != nil {
					b.Fatal(err)
				}
			}
			for i := range senders {
				add(hashsig.Sum([]byte(fmt.Sprintf("sender-%d", i))))
			}
			var inflight [][]Pooled
			var late []hashsig.Digest
			b.ResetTimer()
			for range b.N {
				inflight = append(inflight, p.NextBatch(batch))
				for _, a := range late {
					add(a)
				}
				late = late[:0]
				if len(inflight) < senders/batch {
					continue
				}
				for i, pr := range inflight[0] {
					if i%2 == 0 {
						add(pr.Req.Author)
					} else {
						late = append(late, pr.Req.Author)
					}
				}
				inflight = inflight[1:]
			}
		})
	}
}
