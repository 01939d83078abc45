package ledger

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
)

// hiddenFootprint wraps an App, hiding any Footprint method: a ledger built
// over it always takes the sequential core, making it the oracle the
// parallel executor is compared against.
type hiddenFootprint struct{ app App }

func (h hiddenFootprint) Execute(tx *kv.Tx, request []byte) error {
	return h.app.Execute(tx, request)
}

// waveProbe wraps a footprint-declaring App and counts its executions by
// how they were begun: only the wave executor runs transactions under
// shard-access tracking, so tracked > 0 proves a run speculated through it
// and plain > 0 proves the sequential loop ran.
type waveProbe struct {
	app interface {
		App
		Footprinter
	}
	tracked, plain atomic.Int64
}

func (p *waveProbe) Execute(tx *kv.Tx, request []byte) error {
	if tx.TouchedShards() != nil {
		p.tracked.Add(1)
	} else {
		p.plain.Add(1)
	}
	return p.app.Execute(tx, request)
}

func (p *waveProbe) Footprint(request []byte) ([]string, bool) { return p.app.Footprint(request) }

// assertReplayEqualsLive replays a live ledger's stream through probe and
// checks the auditor lands on the live replica's roots and state.
func assertReplayEqualsLive(t *testing.T, label string, live *Ledger, probe *waveProbe) {
	t.Helper()
	res, err := Replay(live.Batches(), testKey.Public(), probe, nil)
	if err != nil {
		t.Fatalf("%s: replay of the live stream: %v", label, err)
	}
	if res.HistSize != live.HistSize() || res.HistRoot != live.HistRoot() || res.StateDigest != live.StateDigest() {
		t.Fatalf("%s: replay diverges from the live ledger", label)
	}
}

// forceParallel pins GOMAXPROCS above 1 for the duration of a test so the
// parallel executor's CPU gate opens even on a single-core machine.
func forceParallel(t testing.TB) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// genBatch builds a randomized batch: keyPool controls conflict density
// (small pool = hot keys = dense conflicts), with a mix of multi-op
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

// assertBatchesEqual compares everything the executors emit except the
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
		if p.Entry.Digest() != s.Entry.Digest() || p.Shard != s.Shard ||
			p.Index != s.Index || p.ShardSize != s.ShardSize || len(p.Path) != len(s.Path) {
			t.Fatalf("%s: receipt %d differs", label, i)
		}
		for j := range p.Path {
			if p.Path[j] != s.Path[j] {
				t.Fatalf("%s: receipt %d path element %d differs", label, i, j)
			}
		}
	}
}

// TestParallelExecuteMatchesSequential is the tentpole property: across
// shard counts, batch sizes, and conflict densities, the parallel executor
// emits byte-identical entries, headers, receipts, and post-state to the
// sequential core.
func TestParallelExecuteMatchesSequential(t *testing.T) {
	forceParallel(t)
	for _, shards := range []uint32{1, 4, 16} {
		for _, keyPool := range []int{4, 64, 4096} { // dense → sparse conflicts
			label := fmt.Sprintf("shards=%d/pool=%d", shards, keyPool)
			t.Run(label, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards)*1000 + int64(keyPool)))
				par, err := New(Config{Key: testKey, App: KVApp{}, Shards: shards, CheckpointEvery: 2})
				if err != nil {
					t.Fatal(err)
				}
				seqL, err := New(Config{Key: testKey, App: hiddenFootprint{KVApp{}}, Shards: shards, CheckpointEvery: 2})
				if err != nil {
					t.Fatal(err)
				}
				for batch := 0; batch < 4; batch++ {
					reqs := genBatch(rng, minParallelBatch+rng.Intn(100), keyPool)
					pb, pr, err := par.ExecuteBatch(reqs)
					if err != nil {
						t.Fatal(err)
					}
					sb, sr, err := seqL.ExecuteBatch(reqs)
					if err != nil {
						t.Fatal(err)
					}
					assertBatchesEqual(t, fmt.Sprintf("%s/batch=%d", label, batch), pb, sb, pr, sr)
					if par.StateDigest() != seqL.StateDigest() {
						t.Fatalf("%s: post-state digests diverge after batch %d", label, batch)
					}
					for _, r := range pr {
						if !r.Verify(testKey.Public()) {
							t.Fatalf("%s: parallel receipt does not verify", label)
						}
					}
				}
			})
		}
	}
}

// lyingApp under-declares its footprint: Execute writes a key Footprint
// never mentions. The executor must detect the violation via shard-access
// tracking and fall back to the sequential core — same results, no
// divergence.
type lyingApp struct{}

func (lyingApp) Execute(tx *kv.Tx, request []byte) error {
	if err := (KVApp{}).Execute(tx, request); err != nil {
		return err
	}
	tx.Put("undeclared-key", []byte("surprise"))
	return nil
}

func (lyingApp) Footprint(request []byte) ([]string, bool) {
	return KVApp{}.Footprint(request)
}

func TestParallelExecuteFallsBackOnViolatedFootprint(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(7))
	par, err := New(Config{Key: testKey, App: lyingApp{}, Shards: 8, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqL, err := New(Config{Key: testKey, App: hiddenFootprint{lyingApp{}}, Shards: 8, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genBatch(rng, minParallelBatch+16, 32)
	pb, pr, err := par.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sb, sr, err := seqL.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, "lying-app", pb, sb, pr, sr)
	if par.StateDigest() != seqL.StateDigest() {
		t.Fatal("post-state digests diverge after fallback")
	}
	// The auditor's replay speculates over the same lie, falls back the same
	// way, and still agrees with the live ledger.
	probe := &waveProbe{app: lyingApp{}}
	assertReplayEqualsLive(t, "lying-app", par, probe)
	if probe.tracked.Load() == 0 || probe.plain.Load() == 0 {
		t.Fatalf("replay ran %d tracked and %d plain executions, want a speculation and a sequential re-run",
			probe.tracked.Load(), probe.plain.Load())
	}
}

// barrierApp refuses to declare footprints for some requests: those become
// scheduling barriers, and execution must still match sequential exactly.
type barrierApp struct{}

func (barrierApp) Execute(tx *kv.Tx, request []byte) error {
	return KVApp{}.Execute(tx, request)
}

func (barrierApp) Footprint(request []byte) ([]string, bool) {
	keys, ok := KVApp{}.Footprint(request)
	for _, k := range keys {
		if strings.HasSuffix(k, "0") { // ~1 in 10 requests become barriers
			return nil, false
		}
	}
	return keys, ok
}

func TestParallelExecuteWithBarriers(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(11))
	par, err := New(Config{Key: testKey, App: barrierApp{}, Shards: 8, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	seqL, err := New(Config{Key: testKey, App: hiddenFootprint{barrierApp{}}, Shards: 8, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		reqs := genBatch(rng, minParallelBatch+32, 48)
		pb, pr, err := par.ExecuteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		sb, sr, err := seqL.ExecuteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchesEqual(t, fmt.Sprintf("barriers/batch=%d", batch), pb, sb, pr, sr)
	}
}

// TestParallelApplyAdoptsSequentialBatch drives the backup path: a
// sequential primary proposes, a parallel backup re-executes and must adopt
// the primary's header as received; a tampered batch must be rejected and
// leave the backup rolled back, exactly like the sequential backup.
func TestParallelApplyAdoptsAndRejects(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(23))
	primary, err := New(Config{Key: testKey, App: hiddenFootprint{KVApp{}}, Shards: 8, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	backupKey := hashsig.GenerateKeyFromSeed("parallel-backup")
	backup, err := New(Config{Key: backupKey, App: KVApp{}, Shards: 8, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 4; batch++ {
		reqs := genBatch(rng, minParallelBatch+rng.Intn(64), 64)
		pb, _, err := primary.ExecuteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		own, err := backup.ApplyBatch(pb)
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

	// Tamper with one transaction result: the parallel backup must reject,
	// roll back cleanly, and then accept the honest batch.
	reqs := genBatch(rng, minParallelBatch+8, 64)
	pb, _, err := primary.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	tampered := &Batch{Header: pb.Header, Entries: append([]Entry(nil), pb.Entries...)}
	for i := range tampered.Entries {
		if tampered.Entries[i].Kind == KindTransaction && tampered.Entries[i].Result != (hashsig.Digest{}) {
			tampered.Entries[i].Result = hashsig.Sum([]byte("forged"))
			break
		}
	}
	preSeq, preState := backup.Seq(), backup.StateDigest()
	if _, err := backup.ApplyBatch(tampered); err == nil {
		t.Fatal("tampered batch accepted")
	}
	if backup.Seq() != preSeq || backup.StateDigest() != preState {
		t.Fatal("rejected batch left residue on the backup")
	}
	if _, err := backup.ApplyBatch(pb); err != nil {
		t.Fatalf("honest batch rejected after tampered one: %v", err)
	}
	if backup.StateDigest() != primary.StateDigest() {
		t.Fatal("backup state diverges after recovery")
	}
}

// panickyApp panics mid-batch inside a wave worker; the panic must surface
// on the calling goroutine with the pre-batch mark intact so the caller can
// roll back, matching the sequential contract.
type panickyApp struct{}

func (panickyApp) Execute(tx *kv.Tx, request []byte) error {
	if len(request) > 0 && request[0] == 0xfe {
		panic("app exploded")
	}
	return KVApp{}.Execute(tx, request)
}

func (panickyApp) Footprint(request []byte) ([]string, bool) {
	if len(request) > 0 && request[0] == 0xfe {
		return nil, true
	}
	return KVApp{}.Footprint(request)
}

func TestParallelExecutePanicPropagates(t *testing.T) {
	forceParallel(t)
	l, err := New(Config{Key: testKey, App: panickyApp{}, Shards: 8, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	reqs := genBatch(rng, minParallelBatch+8, 64)
	reqs[len(reqs)/2] = Request{Author: hashsig.Sum([]byte("boom")), Body: []byte{0xfe}}
	seq := l.Seq()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("worker panic did not propagate")
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

// TestPlanWavesOrdersConflicts unit-tests the scheduling recurrence:
// conflicting requests land in strictly increasing waves, disjoint requests
// share waves, and unknown footprints act as full barriers.
func TestPlanWavesOrdersConflicts(t *testing.T) {
	const shards = 8
	fp := func(ss ...uint32) shardSet {
		s := newShardSet(shards)
		for _, x := range ss {
			s.add(x)
		}
		return s
	}
	entries := make([]Entry, 7)
	for i := range entries {
		entries[i].Kind = KindTransaction
	}
	entries[2].Kind = KindGovernance
	fps := []shardSet{
		fp(0),    // wave 1
		fp(1),    // wave 1 (disjoint)
		nil,      // governance: unscheduled (fps ignored)
		fp(0, 2), // wave 2 (conflicts with req 0)
		nil,      // barrier: wave 3
		fp(5),    // wave 4 (after barrier)
		fp(5),    // wave 5 (conflicts with req 5)
	}
	waves := planWaves(entries, fps, shards)
	want := [][]int{{0, 1}, {3}, {4}, {5}, {6}}
	if len(waves) != len(want) {
		t.Fatalf("got %d waves %v, want %v", len(waves), waves, want)
	}
	for w := range want {
		if len(waves[w]) != len(want[w]) {
			t.Fatalf("wave %d = %v, want %v", w+1, waves[w], want[w])
		}
		for i := range want[w] {
			if waves[w][i] != want[w][i] {
				t.Fatalf("wave %d = %v, want %v", w+1, waves[w], want[w])
			}
		}
	}
}
