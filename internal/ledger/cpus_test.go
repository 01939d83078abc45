package ledger

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
)

// The ledger derives a proposed or applied batch on the goroutine that
// calls it, but Replay, when it has the CPUs, runs every check on a
// checker goroutine beside its execution lane. The tests here hold every
// policy to one answer whatever GOMAXPROCS says: a ledger run at
// GOMAXPROCS=4 and one run at GOMAXPROCS=1 must emit the same bytes.

// forceParallel pins GOMAXPROCS above 1 for the duration of a test so the
// multi-goroutine schedules open even on a single-core machine.
func forceParallel(t testing.TB) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// atProcs runs f with GOMAXPROCS pinned to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// genBatch builds a randomized batch: keyPool controls how often requests
// touch the same keys (small pool = hot keys), with a mix of multi-op
// transactions, governance records, and malformed bodies.
func genBatch(rng *rand.Rand, n, keyPool int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		author := fmt.Sprintf("client-%d", rng.Intn(8))
		switch rng.Intn(10) {
		case 0:
			reqs = append(reqs, Request{
				Governance: true,
				Author:     hashsig.Sum([]byte("member:" + author)),
				Body:       []byte(fmt.Sprintf("gov-%d", i)),
			})
			continue
		case 1:
			// Malformed body: aborts deterministically, touches nothing.
			reqs = append(reqs, Request{
				Author: hashsig.Sum([]byte("client:" + author)),
				ReqNo:  uint64(i),
				Body:   []byte{0xff, 0xff, 0xff},
			})
			continue
		}
		ops := make([]Op, 0, 4)
		for o := 0; o < 1+rng.Intn(4); o++ {
			k := fmt.Sprintf("key-%d", rng.Intn(keyPool))
			if rng.Intn(8) == 0 {
				ops = append(ops, Op{Key: k, Delete: true})
			} else {
				ops = append(ops, Op{Key: k, Val: []byte(fmt.Sprintf("v-%d-%d", i, o))})
			}
		}
		reqs = append(reqs, Request{
			Author: hashsig.Sum([]byte("client:" + author)),
			ReqNo:  uint64(i),
			Body:   EncodeOps(ops),
		})
	}
	return reqs
}

// assertBatchesEqual compares everything two derivations emit except the
// signature bytes, which are a function of the key and the statement; the
// content digest covers every content field of the header.
func assertBatchesEqual(t *testing.T, label string, pb, sb *Batch, pr, sr []Receipt) {
	t.Helper()
	if pb.Header.ContentDigest() != sb.Header.ContentDigest() {
		t.Fatalf("%s: header signing digests differ\nparallel:   %+v\nsequential: %+v",
			label, pb.Header, sb.Header)
	}
	if len(pb.Entries) != len(sb.Entries) {
		t.Fatalf("%s: entry counts differ: %d vs %d", label, len(pb.Entries), len(sb.Entries))
	}
	for i := range pb.Entries {
		if pb.Entries[i].Digest() != sb.Entries[i].Digest() {
			t.Fatalf("%s: entry %d differs\nparallel:   %+v\nsequential: %+v",
				label, i, pb.Entries[i], sb.Entries[i])
		}
	}
	if len(pr) != len(sr) {
		t.Fatalf("%s: receipt counts differ: %d vs %d", label, len(pr), len(sr))
	}
	for i := range pr {
		p, s := pr[i], sr[i]
		if p.Entry.Digest() != s.Entry.Digest() || p.Index != s.Index || len(p.Path) != len(s.Path) {
			t.Fatalf("%s: receipt %d differs", label, i)
		}
		for j := range p.Path {
			if p.Path[j] != s.Path[j] {
				t.Fatalf("%s: receipt %d path element %d differs", label, i, j)
			}
		}
	}
}

// executeAlike proposes reqs on par at GOMAXPROCS=4 and on seq at
// GOMAXPROCS=1 and checks both derive the same batch, receipts and
// post-state, and that every receipt verifies.
func executeAlike(t *testing.T, label string, par, seq *Ledger, reqs []Request) {
	t.Helper()
	var pb, sb *Batch
	var pr, sr []Receipt
	var perr, serr error
	atProcs(4, func() { pb, pr, perr = par.ExecuteBatch(reqs) })
	atProcs(1, func() { sb, sr, serr = seq.ExecuteBatch(reqs) })
	if perr != nil || serr != nil {
		t.Fatalf("%s: ExecuteBatch: %v / %v", label, perr, serr)
	}
	assertBatchesEqual(t, label, pb, sb, pr, sr)
	if par.StateDigest() != seq.StateDigest() {
		t.Fatalf("%s: post-state digests diverge", label)
	}
	for _, r := range pr {
		if !r.Verify(testKey.Public()) {
			t.Fatalf("%s: receipt does not verify", label)
		}
	}
}

// TestParallelExecuteMatchesSequential: across batch sizes and key
// contention, proposing at GOMAXPROCS=4 emits byte-identical
// entries, headers, receipts and post-state to proposing at GOMAXPROCS=1.
// The last batch of each run is larger than any batch a node cuts. The
// ledgers take bench/'s Shards: 1, which names the subtests.
func TestParallelExecuteMatchesSequential(t *testing.T) {
	for _, keyPool := range []int{4, 64, 4096} { // hot → cold keys
		label := fmt.Sprintf("shards=1/pool=%d", keyPool)
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + int64(keyPool)))
			par, err := New(Config{Key: testKey, App: KVApp{}, Shards: 1, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := New(Config{Key: testKey, App: KVApp{}, Shards: 1, CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 4; batch++ {
				n := 64 + rng.Intn(100)
				if batch == 3 {
					n += 256
				}
				executeAlike(t, fmt.Sprintf("%s/batch=%d", label, batch), par, seq, genBatch(rng, n, keyPool))
			}
		})
	}
}

// TestParallelApplyAdoptsAndRejects drives the backup path across
// schedules: a primary proposing at GOMAXPROCS=1, a backup applying at
// GOMAXPROCS=4 that must adopt the primary's header as received; a
// tampered batch must be rejected and leave the backup rolled back.
func TestParallelApplyAdoptsAndRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	primary, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	backupKey := hashsig.GenerateKeyFromSeed("parallel-backup")
	backup, err := New(Config{Key: backupKey, App: KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	propose := func(n int) *Batch {
		var pb *Batch
		var err error
		atProcs(1, func() { pb, _, err = primary.ExecuteBatch(genBatch(rng, n, 64)) })
		if err != nil {
			t.Fatal(err)
		}
		return pb
	}
	apply := func(b *Batch) (own *BatchHeader, err error) {
		atProcs(4, func() { own, err = backup.ApplyBatch(b) })
		return own, err
	}
	for batch := 0; batch < 4; batch++ {
		pb := propose(64 + rng.Intn(64))
		own, err := apply(pb)
		if err != nil {
			t.Fatal(err)
		}
		if own.StatementDigest() != pb.Header.StatementDigest() {
			t.Fatalf("batch %d: backup adopted a different statement", batch)
		}
		if !own.Verify(testKey.Public()) {
			t.Fatalf("batch %d: adopted header does not carry the primary's signature", batch)
		}
		if backup.StateDigest() != primary.StateDigest() {
			t.Fatalf("batch %d: backup state diverges", batch)
		}
	}

	// Tamper with one transaction result: the backup must reject, roll
	// back cleanly, and then accept the honest batch.
	pb := propose(72)
	tampered := &Batch{Header: pb.Header, Entries: append([]Entry(nil), pb.Entries...)}
	for i := range tampered.Entries {
		if tampered.Entries[i].Kind == KindTransaction && tampered.Entries[i].Result != (hashsig.Digest{}) {
			tampered.Entries[i].Result = hashsig.Sum([]byte("forged"))
			break
		}
	}
	preSeq, preState := backup.Seq(), backup.StateDigest()
	if _, err := apply(tampered); err == nil {
		t.Fatal("tampered batch accepted")
	}
	if backup.Seq() != preSeq || backup.StateDigest() != preState {
		t.Fatal("rejected batch left residue on the backup")
	}
	if _, err := apply(pb); err != nil {
		t.Fatalf("honest batch rejected after tampered one: %v", err)
	}
	if backup.StateDigest() != primary.StateDigest() {
		t.Fatal("backup state diverges after recovery")
	}
}

// panickyApp panics on a request whose body starts with 0xfe.
type panickyApp struct{}

func (panickyApp) Execute(tx *kv.Tx, request []byte) error {
	if len(request) > 0 && request[0] == 0xfe {
		panic("app exploded")
	}
	return KVApp{}.Execute(tx, request)
}

// TestParallelExecutePanicPropagates: an App that panics mid-batch, after
// the entries before it were executed and hashed, panics the caller with
// the pre-batch mark intact, so the caller can roll back — at GOMAXPROCS=4
// as on one CPU.
func TestParallelExecutePanicPropagates(t *testing.T) {
	forceParallel(t)
	l, err := New(Config{Key: testKey, App: panickyApp{}, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	reqs := genBatch(rng, 72, 64)
	reqs[len(reqs)/2] = Request{Author: hashsig.Sum([]byte("boom")), Body: []byte{0xfe}}
	seq := l.Seq()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("app panic did not propagate")
			}
		}()
		l.ExecuteBatch(reqs)
	}()
	if err := l.RollbackTo(seq); err != nil {
		t.Fatalf("rollback after panic: %v", err)
	}
	// The ledger still works.
	if _, _, err := l.ExecuteBatch(genBatch(rng, 8, 16)); err != nil {
		t.Fatal(err)
	}
}
