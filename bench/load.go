package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
)

const (
	keySpace = 8192 // fixed key space of the overwrite workloads
	valueLen = 32   // bytes per value; one Op per request
)

// requestGen is one author's seeded request stream: strictly increasing
// request numbers, a 32-byte value, and a key that is either drawn from
// the fixed key space or never seen before.
type requestGen struct {
	rng    *rand.Rand
	author hashsig.Digest
	id     int
	fresh  bool
	reqNo  uint64
}

// newRequestGen derives stream id's author and randomness from the seed.
// Distinct ids (including the warm-up's -1) never share an author, so no
// two streams can mint the same request.
func newRequestGen(seed int64, id int, fresh bool) *requestGen {
	return &requestGen{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		author: hashsig.Sum([]byte(fmt.Sprintf("bench-%d/author/%d", seed, id))),
		id:     id,
		fresh:  fresh,
	}
}

func (g *requestGen) next() ledger.Request {
	g.reqNo++
	val := make([]byte, valueLen)
	g.rng.Read(val)
	key := fmt.Sprintf("k%d", g.rng.Intn(keySpace))
	if g.fresh {
		key = fmt.Sprintf("i%d/%d", g.id, g.reqNo)
	}
	return ledger.Request{
		Author: g.author,
		ReqNo:  g.reqNo,
		Body:   ledger.EncodeOps([]ledger.Op{{Key: key, Val: val}}),
	}
}

// genStreams returns n author streams over the fixed key space.
func genStreams(seed int64, n int) []*requestGen {
	g := make([]*requestGen, n)
	for i := range g {
		g[i] = newRequestGen(seed, i, false)
	}
	return g
}

// nextBatch draws one request from every stream.
func nextBatch(g []*requestGen) []ledger.Request {
	reqs := make([]ledger.Request, len(g))
	for i := range g {
		reqs[i] = g[i].next()
	}
	return reqs
}

// checkReceipt is the client-side audit step: the receipt must be for this
// request and verify under a replica key.
func checkReceipt(rq *ledger.Request, rc *ledger.Receipt, pubs []*hashsig.PublicKey) bool {
	if rc == nil || rc.Entry.Author != rq.Author || rc.Entry.ReqNo != rq.ReqNo {
		return false
	}
	for _, pub := range pubs {
		if rc.Verify(pub) {
			return true
		}
	}
	return false
}

// submitFunc sends one request and blocks for its verdict.
type submitFunc func(rq *ledger.Request) (node.SubmitResult, error)

// reqRecord is one request's client-side timeline, in nanoseconds since the
// measured interval began. It is both the latency sample and, in a traced
// run, the three client spans (client.request ⊃ rpc.submit, client.verify).
type reqRecord struct {
	id       uint64
	due      int64 // when the request was due (open loop) or sent (closed loop)
	sent     int64
	replied  int64
	verified int64 // 0 when the request failed
	busy     bool  // rejected with StatusBusy
}

// loadResult is what a load phase hands back for scoring.
type loadResult struct {
	records []reqRecord
	shed    int // open loop only: due requests dropped at the outstanding cap
}

// client runs requests against one submitFunc and records their timelines.
type client struct {
	start  time.Time
	pubs   []*hashsig.PublicKey
	nextID atomic.Uint64
}

func (cl *client) do(submit submitFunc, rq *ledger.Request, due time.Time) reqRecord {
	r := reqRecord{id: cl.nextID.Add(1), due: int64(due.Sub(cl.start))}
	r.sent = int64(time.Since(cl.start))
	res, err := submit(rq)
	r.replied = int64(time.Since(cl.start))
	if err == nil && res.Status == node.StatusCommitted && checkReceipt(rq, res.Receipt, cl.pubs) {
		r.verified = int64(time.Since(cl.start))
	}
	r.busy = err == nil && res.Status == node.StatusBusy
	return r
}

// runClosed drives one closed-loop caller per submitFunc for d: each sends
// its next request only once the previous one resolved. fresh selects
// never-seen keys. A failed request backs off a millisecond so a wedged
// cluster is not hammered in a spin.
func runClosed(seed int64, submits []submitFunc, pubs []*hashsig.PublicKey, fresh bool, d time.Duration) loadResult {
	cl := &client{start: time.Now(), pubs: pubs}
	end := cl.start.Add(d)
	perWorker := make([][]reqRecord, len(submits))
	var wg sync.WaitGroup
	for w := range submits {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newRequestGen(seed, w, fresh)
			for now := time.Now(); now.Before(end); now = time.Now() {
				rq := g.next()
				r := cl.do(submits[w], &rq, now)
				perWorker[w] = append(perWorker[w], r)
				if r.verified == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	var res loadResult
	for _, rs := range perWorker {
		res.records = append(res.records, rs...)
	}
	return res
}

// openLoop fires request i at start + i/rate whatever the system does.
// now and sleep are parameters so the scheduler's accounting is testable
// without a real clock: a late wake-up fires everything that fell due, each
// with its intended time, so the stall shows up as lag and as latency
// rather than as a lower offered rate.
func openLoop(rate float64, d time.Duration, start time.Time,
	now func() time.Time, sleep func(time.Duration), fire func(i int, due time.Time)) {
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total; {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
			continue
		}
		fire(i, due)
		i++
	}
}

// runOpen offers rate requests per second for d on a fixed schedule, spread
// round-robin over authors streams, with at most maxOutstanding in flight;
// a request due while the cap is reached is shed and counts as failed.
func runOpen(seed int64, submit submitFunc, pubs []*hashsig.PublicKey, rate float64, authors, maxOutstanding int, d time.Duration) loadResult {
	cl := &client{start: time.Now(), pubs: pubs}
	gens := genStreams(seed, authors)
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	slots := make(chan struct{}, maxOutstanding) // counting semaphore
	openLoop(rate, d, cl.start, time.Now, time.Sleep, func(i int, due time.Time) {
		select {
		case slots <- struct{}{}:
		default:
			res.shed++
			return
		}
		rq := gens[i%authors].next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := cl.do(submit, &rq, due)
			<-slots
			mu.Lock()
			res.records = append(res.records, r)
			mu.Unlock()
		}()
	})
	wg.Wait()
	return res
}
