package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
)

// laneStream executes batches × size requests (two puts each, over a small
// key space, under several authors) on a fresh ledger with the given shard
// count, signed by testKey, and returns its stream. A checkpoint marker
// ends every even-numbered batch.
func laneStream(t testing.TB, shards uint32, batches, size int) []*Batch {
	t.Helper()
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		reqs := make([]Request, size)
		for i := range reqs {
			n := b*size + i
			reqs[i] = Request{
				Author: hashsig.Sum([]byte(fmt.Sprintf("lane-author-%d", i%5))),
				ReqNo:  uint64(n),
				Body: EncodeOps([]Op{
					{Key: fmt.Sprintf("k%d", n%97), Val: []byte(fmt.Sprintf("v%d", n))},
					{Key: fmt.Sprintf("k%d", (n*7)%97), Val: []byte("w")},
				}),
			}
		}
		if _, _, err := l.ExecuteBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}
	return l.Batches()
}

// encodeStream is WriteBatches into a byte slice.
func encodeStream(t testing.TB, batches []*Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBatches(&buf, batches); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resign re-signs a tampered header under testKey, as a misbehaving
// primary would: the signature holds, the content does not reproduce.
func resign(b *Batch) { b.Header.Sig = testKey.MustSign(b.Header.StatementDigest()) }

// TestReplaySignatureWinsOverEarlierDivergence: the signatures are checked
// beside the replay, not before it, and the verdict must not change — a
// stream whose batch j diverges and whose later batch k carries a forged
// signature is rejected for the signature, inline and pipelined.
func TestReplaySignatureWinsOverEarlierDivergence(t *testing.T) {
	honest := laneStream(t, 1, 4, 40)
	pool := hashsig.NewVerifierPool(2)
	defer pool.Close()
	for _, procs := range []int{1, 4} {
		evil := deepCopyBatches(honest)
		evil[1].Entries[3].Result[0] ^= 1 // j = 1: diverges, re-signed
		resign(evil[1])
		evil[3].Header.Sig[5] ^= 0x20 // k = 3: forged signature
		prev := runtime.GOMAXPROCS(procs)
		_, err := Replay(evil, testKey.Public(), KVApp{}, pool)
		runtime.GOMAXPROCS(prev)
		var div *Divergence
		if !errors.Is(err, ErrReplay) || errors.As(err, &div) || !strings.Contains(err.Error(), "batch 4: invalid header signature") {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want batch 4's invalid signature", procs, err)
		}
	}
}

// explodingApp panics on the first transaction it is asked to execute.
type explodingApp struct{}

func (explodingApp) Execute(*kv.Tx, []byte) error { panic("app exploded") }

// TestReplayLeavesNoGoroutines: whatever Replay concludes — success, a
// divergence, a bad signature — or if the App panics, every goroutine it
// started (the signature check, the checker) has exited once it returns.
func TestReplayLeavesNoGoroutines(t *testing.T) {
	forceParallel(t)
	pool := hashsig.NewVerifierPool(2) // workers started before the baseline
	defer pool.Close()
	honest := laneStream(t, 1, 3, 40)
	diverged := deepCopyBatches(honest)
	diverged[1].Header.MRoot[0] ^= 1
	resign(diverged[1])
	forged := deepCopyBatches(honest)
	forged[2].Header.Sig[0] ^= 1
	cases := []struct {
		name    string
		batches []*Batch
		app     App
		ok      bool
	}{
		{"success", honest, KVApp{}, true},
		{"divergence", diverged, KVApp{}, false},
		{"bad signature", forged, KVApp{}, false},
		{"app panic", honest, explodingApp{}, false},
	}
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil && tc.name != "app panic" {
					t.Fatalf("%s: panic %v", tc.name, p)
				}
			}()
			_, err := Replay(tc.batches, testKey.Public(), tc.app, pool)
			if (err == nil) != tc.ok {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
			if tc.name == "app panic" {
				t.Fatal("app panic: Replay returned")
			}
		}()
		// A joined goroutine may still be between its last statement and
		// its exit; give it a moment.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines still running after Replay, %d before:\n%s",
				tc.name, n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// replayVerdict is everything of a Replay outcome the two schedules must
// agree on.
type replayVerdict struct {
	ok                   bool
	res                  ReplayResult
	replay, config       bool
	divergence           bool
	seq                  uint64
	entry                int
	field, msg, errorMsg string
}

func verdictOf(res *ReplayResult, err error) replayVerdict {
	if err == nil {
		return replayVerdict{ok: true, res: *res}
	}
	v := replayVerdict{replay: errors.Is(err, ErrReplay), config: errors.Is(err, ErrConfig), errorMsg: err.Error()}
	var d *Divergence
	if errors.As(err, &d) {
		v.divergence, v.seq, v.entry, v.field, v.msg = true, d.Seq, d.Entry, d.Field, d.Error()
	}
	return v
}

// replayAt replays batches with GOMAXPROCS pinned to procs: 1 derives
// every batch inline, more runs the pipeline (execution lane and checker).
func replayAt(procs int, batches []*Batch) replayVerdict {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return verdictOf(Replay(batches, testKey.Public(), KVApp{}, hashsig.DefaultPool()))
}

// FuzzReplayStream feeds the auditor's whole input path — ReadBatches,
// then Replay — mutated streams, with the inline schedule as the oracle
// for the pipeline. For every input: nothing panics; a stream Replay
// accepts is a prefix of the honest stream of its shard count, batch for
// batch byte-identical once re-encoded (nothing else is signed by
// testKey); and GOMAXPROCS=1 and GOMAXPROCS=2 reach the same verdict — the
// same result, or the same error class and Divergence.
func FuzzReplayStream(f *testing.F) {
	honest := map[uint32][]*Batch{
		1: laneStream(f, 1, 3, 40),
		4: laneStream(f, 4, 3, 72),
	}
	for _, shards := range []uint32{1, 4} {
		f.Add(encodeStream(f, honest[shards]))
	}
	forgedSig := deepCopyBatches(honest[1])
	forgedSig[2].Header.Sig[9] ^= 0x04
	f.Add(encodeStream(f, forgedSig))
	forgedResult := deepCopyBatches(honest[4])
	forgedResult[1].Entries[7].Result[0] ^= 1
	resign(forgedResult[1])
	f.Add(encodeStream(f, forgedResult))
	forgedState := deepCopyBatches(honest[1])
	lastEntry(forgedState[1]).State[0] ^= 1
	resign(forgedState[1])
	f.Add(encodeStream(f, forgedState))
	resultThenKind := deepCopyBatches(honest[4])
	resultThenKind[1].Entries[3].Result[0] ^= 1
	resultThenKind[1].Entries[20].Kind = 99
	resign(resultThenKind[1])
	f.Add(encodeStream(f, resultThenKind))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := ReadBatches(bytes.NewReader(data))
		if err != nil {
			return
		}
		inline, lanes := replayAt(1, batches), replayAt(2, batches)
		if inline != lanes {
			t.Fatalf("schedules disagree:\n inline    %+v\n pipeline  %+v", inline, lanes)
		}
		if !inline.ok || len(batches) == 0 {
			return
		}
		want := honest[batches[0].Header.Shards]
		if len(batches) > len(want) {
			t.Fatalf("accepted %d batches; the honest stream has %d", len(batches), len(want))
		}
		for i, b := range batches {
			if !bytes.Equal(encodeStream(t, []*Batch{b}), encodeStream(t, want[i:i+1])) {
				t.Fatalf("accepted batch %d differs from the honest one", i)
			}
		}
	})
}

// lastEntry is a batch's last entry: its checkpoint marker, if it has one.
func lastEntry(b *Batch) *Entry { return &b.Entries[len(b.Entries)-1] }

// TestReplayVerdictOrder: the pipeline runs the structural rules on the
// execution lane and every other check on the checker, a batch or more
// behind, yet must name the divergence derive names — the first in
// derivation order (batch, then entry, then header field). For each
// tampering the verdict at GOMAXPROCS 2 and 4 must equal the one at
// GOMAXPROCS 1, where every batch is derived inline, and name the expected
// batch and field. The paired cases put a structural divergence on the lane
// after an earlier one only the checker can see, in one batch and in
// adjacent ones, so the lane stops before the checker has reached the
// verdict.
func TestReplayVerdictOrder(t *testing.T) {
	honest := laneStream(t, 1, 6, 64)
	flip := func(d *hashsig.Digest) { d[0] ^= 1 }
	cases := []struct {
		name  string
		mut   func(bs []*Batch)
		seq   uint64 // batch the verdict names; 0 = accepted
		field string
	}{
		{"honest", func([]*Batch) {}, 0, ""},
		{"result", func(bs []*Batch) { flip(&bs[2].Entries[17].Result) }, 3, "Result"},
		{"marker state", func(bs []*Batch) { flip(&lastEntry(bs[3]).State) }, 4, "State"},
		{"marker misplaced", func(bs []*Batch) { bs[1].Entries[5], *lastEntry(bs[1]) = *lastEntry(bs[1]), bs[1].Entries[5] }, 2, "Marker"},
		{"marker mislabelled", func(bs []*Batch) { lastEntry(bs[3]).Seq = 3 }, 4, "Seq"},
		{"unknown kind", func(bs []*Batch) { bs[4].Entries[9].Kind = 99 }, 5, "Kind"},
		{"GSize", func(bs []*Batch) { bs[2].Header.GSize++ }, 3, "GSize"},
		{"GRoot", func(bs []*Batch) { flip(&bs[2].Header.GRoot) }, 3, "GRoot"},
		{"HistSize", func(bs []*Batch) { bs[2].Header.HistSize++ }, 3, "HistSize"},
		{"MRoot", func(bs []*Batch) { flip(&bs[2].Header.MRoot) }, 3, "MRoot"},
		{"CkptDigest", func(bs []*Batch) { flip(&bs[2].Header.CkptDigest) }, 3, "CkptDigest"},
		{"result then kind, one batch", func(bs []*Batch) {
			flip(&bs[2].Entries[4].Result)
			bs[2].Entries[40].Kind = 99
		}, 3, "Result"},
		{"kind then result, one batch", func(bs []*Batch) {
			bs[2].Entries[4].Kind = 99
			flip(&bs[2].Entries[40].Result)
		}, 3, "Kind"},
		{"result then kind, adjacent batches", func(bs []*Batch) {
			flip(&bs[2].Entries[60].Result)
			bs[3].Entries[0].Kind = 99
		}, 3, "Result"},
		{"state then kind, adjacent batches", func(bs []*Batch) {
			flip(&lastEntry(bs[1]).State)
			bs[2].Entries[0].Kind = 99
		}, 2, "State"},
		{"header then misplaced marker, adjacent batches", func(bs []*Batch) {
			flip(&bs[2].Header.MRoot)
			bs[3].Entries[0], *lastEntry(bs[3]) = *lastEntry(bs[3]), bs[3].Entries[0]
		}, 3, "MRoot"},
		{"result then mislabelled marker, one batch", func(bs []*Batch) {
			flip(&bs[3].Entries[62].Result)
			lastEntry(bs[3]).Seq = 9
		}, 4, "Result"},
	}
	for _, tc := range cases {
		evil := deepCopyBatches(honest)
		tc.mut(evil)
		for _, b := range evil {
			resign(b)
		}
		want := replayAt(1, evil)
		if want.ok != (tc.seq == 0) || want.seq != tc.seq || want.field != tc.field {
			t.Fatalf("%s: inline verdict %+v, want batch %d field %q", tc.name, want, tc.seq, tc.field)
		}
		for _, procs := range []int{2, 4} {
			for run := 0; run < 10; run++ {
				if got := replayAt(procs, evil); got != want {
					t.Fatalf("%s: GOMAXPROCS=%d run %d:\n pipeline %+v\n inline   %+v", tc.name, procs, run, got, want)
				}
			}
		}
	}
}
