package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/wire"
)

// allocStream is the fixed stream TestAllocsPerEntry prices: four 64-entry
// batches in BenchmarkReplay's (and audit.replay's) shape — one 32-byte put
// per request over 8 192 keys, a checkpoint every 4 batches, so
// the last batch ends with a marker: 257 entries.
func allocStream(t testing.TB) (reqs [][]Request, stream []*Batch) {
	l := allocLedger(t)
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 4; b++ {
		batch := make([]Request, 64)
		for j := range batch {
			val := make([]byte, 32)
			rng.Read(val)
			batch[j] = Request{
				Author: hashsig.Sum([]byte(fmt.Sprintf("author-%d", j))),
				ReqNo:  uint64(b + 1),
				Body:   EncodeOps([]Op{{Key: fmt.Sprintf("k%d", rng.Intn(8192)), Val: val}}),
			}
		}
		if _, _, err := l.ExecuteBatch(batch); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, batch)
	}
	return reqs, l.Batches()
}

func allocLedger(t testing.TB) *Ledger {
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAllocsPerEntry pins what each of the three paths that run
// core.execute allocates per ledger entry — propose (ExecuteBatch), apply
// (ApplyBatch) and the audit (Replay) — over allocStream, from a fresh
// ledger each run, at GOMAXPROCS 1. Two rows per path:
//
//   - Heap objects: bounded by the count measured — 5.71, 4.43 and 3.73 —
//     plus a slack of half an object per entry, under the race detector
//     too: no digest preimage comes from a pool it could drop. When every
//     commit path-copied the trie they were 19.0, 17.6 and 17.6; while
//     wire.Reader's fixed-width fields still escaped to the heap, 11.2, 9.8
//     and 9.1; while Tx.Put copied the value KVApp had already copied,
//     6.94, 5.65 and 4.98; while ¯G was the root of a merkle.Tree built and
//     dropped per batch and a flush built two write vectors, 5.92, 4.63
//     and 3.91. Replay's row was measured when one CPU derived inline;
//     its pipeline, the one schedule since, reads 3.79 objects and 912 B.
//     Since propose and apply run replay's execute-then-check too, keeping
//     each batch's outcomes for check, they read 5.56 objects and 1837 B,
//     and 4.47 and 926 B.
//   - Heap bytes: bounded by the bytes measured — 1860, 888 and 872 (11 B
//     more under the race detector) — plus a slack of 10 %. Before ¯G and
//     the flush lost their spare buffers they were 1995, 1022 and 1001.
//     Bytes allocated, not objects, set how often the collector runs.
func TestAllocsPerEntry(t *testing.T) {
	reqs, stream := allocStream(t)
	entries := 0
	for _, b := range stream {
		entries += len(b.Entries)
	}
	pub := testKey.Public()
	pool := hashsig.DefaultPool()
	for _, c := range []struct {
		name           string
		objects, bytes float64 // measured per entry
		run            func()
	}{
		{"ExecuteBatch", 5.71, 1860, func() {
			l := allocLedger(t)
			for _, batch := range reqs {
				if _, _, err := l.ExecuteBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"ApplyBatch", 4.43, 888, func() {
			l := allocLedger(t)
			for _, b := range stream {
				if _, err := l.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Replay", 3.73, 872, func() {
			if _, err := Replay(stream, pub, KVApp{}, pool); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		objects := testing.AllocsPerRun(5, c.run) / float64(entries)
		bytes := float64(allocatedPerCall(5, c.run)) / float64(entries)
		t.Logf("%s: %.2f allocs, %.0f B per entry", c.name, objects, bytes)
		if bound := c.objects + 0.5; objects > bound {
			t.Errorf("%s: %.2f allocs per entry, bound %.2f", c.name, objects, bound)
		}
		if bound := c.bytes * 1.1; bytes > bound {
			t.Errorf("%s: %.0f B per entry, bound %.0f", c.name, bytes, bound)
		}
	}
}

// TestAllocsPerDecode pins the heap objects of the two decoders built on
// decodeEntry, each over a bytes-mode reader: DecodeBatch of allocStream's
// last batch (65 entries, 64 of them transactions with a payload each) and
// DecodeReceipt. Each bound is the count measured — 67 and 5 — plus a
// slack of half an object: decode allocates the same objects on every run,
// so one object more is a regression (an entry encoding copied out before
// it is decoded, say).
func TestAllocsPerDecode(t *testing.T) {
	reqs, stream := allocStream(t)
	last := stream[len(stream)-1]
	w := wire.NewAppendWriter(nil)
	last.EncodeTo(w)
	batch := w.AppendedBytes()
	_, receipts, err := allocLedger(t).ExecuteBatch(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	receipt := EncodeReceipt(nil, &receipts[0])
	for _, c := range []struct {
		name     string
		measured float64
		run      func()
	}{
		{"DecodeBatch", 67, func() {
			r := wire.NewBytesReader(batch)
			if b := DecodeBatch(r); r.Err() != nil || len(b.Entries) != len(last.Entries) {
				t.Fatalf("DecodeBatch: %v", r.Err())
			}
		}},
		{"DecodeReceipt", 5, func() {
			if _, err := DecodeReceipt(receipt); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %.0f allocs", c.name, got)
		if bound := c.measured + 0.5; got > bound {
			t.Errorf("%s: %.0f allocs, bound %.1f", c.name, got, bound)
		}
	}
}

// TestDigestsAllocateNothing pins the digests and the batch encoder of the
// commit path at zero heap allocations: each preimage is assembled in a
// stack array and hashed by a SHA-256 state that stays on the stack. A
// toolchain whose escape analysis moves either to the heap fails here.
func TestDigestsAllocateNothing(t *testing.T) {
	_, stream := allocStream(t)
	b := stream[len(stream)-1]
	h := &b.Header
	prep := &Prepare{Replica: 2, Header: *h, NonceCommit: hashsig.Sum([]byte("backup nonce"))}
	sized := wire.NewAppendWriter(nil)
	b.EncodeTo(sized)
	size := len(sized.AppendedBytes())
	if got := b.EncodedLen(); got != size {
		t.Fatalf("EncodedLen %d, EncodeTo wrote %d bytes", got, size)
	}
	buf := make([]byte, 0, size)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"BatchHeader.StatementDigest", func() { h.StatementDigest() }},
		{"BatchHeader.ContentDigest", func() { h.ContentDigest() }},
		{"Prepare.SigningDigest", func() { prep.SigningDigest() }},
		{"Entry.Digest", func() {
			for _, sb := range stream {
				for i := range sb.Entries {
					sb.Entries[i].Digest()
				}
			}
		}},
		{"Batch.EncodeTo", func() {
			w := wire.NewAppendWriter(buf[:0])
			b.EncodeTo(w)
			if len(w.AppendedBytes()) != size {
				t.Fatalf("encoded %d bytes, want %d", len(w.AppendedBytes()), size)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", c.name, got)
		}
	}
}

// allocatedPerCall returns the heap bytes f allocates per call, averaged
// over runs calls after a warm-up call, at GOMAXPROCS 1: the bytes
// counterpart of testing.AllocsPerRun.
func allocatedPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestKVAppAllocatesWhatIsPresent: what KVApp allocates follows the bytes a
// request holds, not the op count it claims. A 4-byte body claiming
// KVApp's cap of 65 536 ops reaches every replica (in a proposal) and every
// auditor (in a ledger); anything sized by the claim would cost 3 MB each
// time.
func TestKVAppAllocatesWhatIsPresent(t *testing.T) {
	for _, body := range [][]byte{
		{0, 1, 0, 0},                // 65 536 ops claimed, none present
		{0, 1, 0, 0, 1, 0, 0, 0},    // and the start of one
		{0, 0, 0, 2, 0, 0, 0, 0, 1}, // two claimed, one truncated delete
	} {
		store := kv.New()
		var err error
		perCall := allocatedPerCall(20, func() {
			tx := store.Begin()
			err = KVApp{}.Execute(tx, body)
			tx.Abort()
		})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("body %x: error %v, want ErrBadRequest", body, err)
		}
		if perCall > 4<<10 {
			t.Fatalf("body %x: %d B allocated per call", body, perCall)
		}
	}
}

// TestKVAppExecuteAllocs pins the heap objects one KVApp.Execute of n puts
// allocates, the transaction included: the Tx, and per put its key string
// and its value, which r.Bytes copies out of the request and Tx.Put keeps;
// past the Tx's four inline ops, one op slice. While Tx.Put copied the
// value again they were 4, 7, 13 and 26.
func TestKVAppExecuteAllocs(t *testing.T) {
	for _, c := range []struct{ ops, want int }{{1, 3}, {2, 5}, {4, 9}, {8, 18}} {
		ops := make([]Op, c.ops)
		for i := range ops {
			ops[i] = Op{Key: fmt.Sprintf("key-%d", i), Val: make([]byte, 32)}
		}
		body := EncodeOps(ops)
		store := kv.New()
		got := testing.AllocsPerRun(50, func() {
			tx := store.Begin()
			if err := (KVApp{}).Execute(tx, body); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		})
		if got != float64(c.want) {
			t.Errorf("%d ops: %.1f allocations, want %d", c.ops, got, c.want)
		}
	}
}

// FuzzKVAppExecute holds KVApp's decoder to a reference one written from
// EncodeOps' format: a body is refused exactly when the reference refuses
// it, and an accepted one leaves each key as its last op says. The seeds
// include bodies that claim far more ops than they hold.
func FuzzKVAppExecute(f *testing.F) {
	f.Add(EncodeOps([]Op{{Key: "a", Val: []byte("1")}, {Key: "b", Delete: true}, {Key: "a", Val: []byte("2")}}))
	f.Add(EncodeOps(nil))
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx := kv.New().Begin()
		defer tx.Abort()
		err := KVApp{}.Execute(tx, data)
		want, ok := referenceOps(data)
		if !ok {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("reference refuses %x, KVApp: %v", data, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("reference accepts %x, KVApp: %v", data, err)
		}
		for k, v := range want {
			got, present := tx.Get(k)
			if present != (v != nil) || !bytes.Equal(got, v) {
				t.Fatalf("key %q: %x (present %v), want %x", k, got, present, v)
			}
		}
	})
}

// referenceOps decodes a KVApp body: the last value of each key, nil for a
// delete, and whether the body is well formed.
func referenceOps(b []byte) (map[string][]byte, bool) {
	field := func() ([]byte, bool) {
		if len(b) < 4 {
			return nil, false
		}
		n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
		if len(b)-4 < n {
			return nil, false
		}
		f := b[4 : 4+n]
		b = b[4+n:]
		return f, true
	}
	if len(b) < 4 {
		return nil, false
	}
	n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	b = b[4:]
	if n > 1<<16 {
		return nil, false
	}
	out := map[string][]byte{}
	for i := 0; i < n; i++ {
		if len(b) < 1 || b[0] > 1 {
			return nil, false
		}
		put := b[0] == 1
		b = b[1:]
		k, ok := field()
		if !ok {
			return nil, false
		}
		if !put {
			out[string(k)] = nil
			continue
		}
		v, ok := field()
		if !ok {
			return nil, false
		}
		out[string(k)] = append([]byte{}, v...)
	}
	return out, len(b) == 0
}

// receiptLedger returns a ledger holding one batch of n transaction
// entries, each with a payload, as batch 1: no checkpoint marker is due.
func receiptLedger(t testing.TB, n int) *Ledger {
	l, err := New(Config{Key: testKey, App: KVApp{}, CheckpointEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExecuteBatch(benchRequests(0, n)); err != nil {
		t.Fatal(err)
	}
	if b := l.BatchAt(1); b == nil || len(b.Entries) != n {
		t.Fatalf("batch 1 does not hold %d entries", n)
	}
	return l
}

// TestReceiptsAllocs pins what cutting a batch's receipts allocates: the
// path arena and its slice of paths (merkle.PathsOf), the receipts, and
// the payload arena — the same four objects at every batch size. While a
// merkle.Tree was built for G and its paths hashed in a second pass, 64
// entries cost 16 and 256 cost 19.
func TestReceiptsAllocs(t *testing.T) {
	for _, n := range []int{1, 64, 129, 256} {
		l := receiptLedger(t, n)
		got := testing.AllocsPerRun(20, func() {
			if rs := l.Receipts(1); len(rs) != n {
				t.Fatalf("%d receipts, want %d", len(rs), n)
			}
		})
		if got != 4 {
			t.Errorf("Receipts of %d entries: %.1f allocations, want 4", n, got)
		}
	}
}
