package ledger

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"iaccf/internal/champ"
	"iaccf/internal/hashsig"
)

// The golden files pin this package's commitments to recorded bytes; see
// testdata/README.md for their layout and provenance (written by d6cf8cd,
// the last commit with three separate derivation loops; regenerated when
// d_C became the Merkle root of the tries, again when the header became the
// whole pre-prepare statement, re-signed — nothing else — when hashsig
// went to Ed25519, and regenerated when the shard partition went).
const (
	goldenStream  = "testdata/golden.stream"
	goldenDigests = "testdata/golden.txt"
	goldenKeySeed = "ledger-golden-replica"
	goldenCkpt    = 2
)

// goldenPinned is golden.txt as recorded when the shard partition went:
// every content digest and the final line, byte for byte, so a later
// regeneration cannot move them silently. The 217 is still d6cf8cd's.
var goldenPinned = []string{
	"batch 1 66a32b580386ff2f0d498d8d093c9b5329b272c54d183aa4c1aad74181915e42 ",
	"batch 2 f58133a811cff8a6892a4a349d281cc59b6524b70d907819f9d8ca0ef492bf67 ",
	"batch 3 27a059e88a3a7dea445e873f733ebacb6beb47092817226213fb71ae1332265a ",
	"final 217 68ba81f2401a768f3923d9ab49a06c411e109203b9e8dafb318ed78fab450690 8eecb0fe54eded62321394a8cacf907eabd80339e59a18ceae7485a37a212aac 8c43df9e57f97e7794b49734d6da435de5188ab24b5dc9a4e8683f800b717c1e",
}

// goldenCkptTrie and goldenFinalTrie tie the files to their predecessors:
// the Merkle root of the store's trie at the one checkpoint (seq 2) and
// after the last batch, as the one-shard run of the files before this
// regeneration (on 1b05edd) had them. The key hash and the trie did not
// change when the partition went; only the digest wrapped around the root
// (d_C) and the batch tree did.
const (
	goldenCkptTrie  = "a88bad4d2aaf31e91f4f410784e95db3107d178610d1678459aa256797f6b771"
	goldenFinalTrie = "495bdec3e7d023e238608746dfd3f5d74efacba0c41876cf6b2f533d027ecbd9"
)

// goldenRequests recovers the request stream a batch stream was executed
// from: entries carry everything a Request holds, and checkpoint markers
// are the ledger's own.
func goldenRequests(batches []*Batch) [][]Request {
	out := make([][]Request, len(batches))
	for i, b := range batches {
		for _, e := range b.Entries {
			switch e.Kind {
			case KindTransaction:
				out[i] = append(out[i], Request{Author: e.Author, ReqNo: e.ReqNo, Body: e.Payload})
			case KindGovernance:
				out[i] = append(out[i], Request{Governance: true, Author: e.Author, Body: e.Payload})
			}
		}
	}
	return out
}

// receiptsDigest hashes a batch's receipts in order, signatures excluded:
// the column was recorded while signatures were randomized ECDSA, and
// blanking them keeps it independent of the key and the scheme. The
// signatures themselves are pinned by the stream comparison in
// TestGoldenByteIdentity.
func receiptsDigest(rcs []Receipt) hashsig.Digest {
	var buf []byte
	for i := range rcs {
		rc := rcs[i]
		rc.Header.Sig = nil
		buf = EncodeReceipt(buf, &rc)
	}
	return hashsig.Sum(buf)
}

// goldenLines renders what one ledger run commits to, one line per batch
// (its content digest — identical for the primary's header and the copy a
// backup adopts — and its receipts digest) plus a final summary, in the
// format of testdata/golden.txt.
func goldenLines(headers []BatchHeader, rcs [][]Receipt, histSize uint64, histRoot, state, ckpt hashsig.Digest) []string {
	var out []string
	for i := range headers {
		hd, rd := headers[i].ContentDigest(), receiptsDigest(rcs[i])
		out = append(out, fmt.Sprintf("batch %d %x %x", headers[i].Seq, hd[:], rd[:]))
	}
	return append(out, goldenFinal(histSize, histRoot, state, ckpt))
}

// goldenFinal renders a run's closing summary line. Digests print through
// d[:] — hashsig.Digest is a Stringer that abbreviates to 8 bytes.
func goldenFinal(histSize uint64, histRoot, state, ckpt hashsig.Digest) string {
	return fmt.Sprintf("final %d %x %x %x", histSize, histRoot[:], state[:], ckpt[:])
}

func readGolden(t *testing.T) (raw []byte, stream []*Batch, lines []string) {
	t.Helper()
	raw, err := os.ReadFile(goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	stream, err = ReadBatches(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if len(lines) != len(goldenPinned) {
		t.Fatalf("golden.txt has %d lines, want %d", len(lines), len(goldenPinned))
	}
	for i, l := range lines {
		if want := goldenPinned[i]; !strings.HasPrefix(l, want) || (strings.HasPrefix(l, "final ") && l != want) {
			t.Fatalf("golden.txt line %q is not the recorded %q", l, want)
		}
	}
	return raw, stream, lines
}

// checkTrieRoots holds a ledger's checkpoint at seq 2, and its state, to
// goldenCkptTrie and goldenFinalTrie.
func checkTrieRoots(t *testing.T, name string, l *Ledger) {
	t.Helper()
	ck := l.CheckpointAt(goldenCkpt)
	if ck == nil || ck.Seq != goldenCkpt {
		t.Fatalf("%s: no checkpoint at %d", name, goldenCkpt)
	}
	for _, c := range []struct {
		at   string
		m    *champ.Map
		want string
	}{{"the checkpoint", ck.Store.ShardSnapshot(), goldenCkptTrie}, {"the end", l.store.ShardSnapshot(), goldenFinalTrie}} {
		if root := c.m.Hash(); fmt.Sprintf("%x", root[:]) != c.want {
			t.Fatalf("%s: trie root at %s is %x, want %s", name, c.at, root[:], c.want)
		}
	}
}

// TestGoldenByteIdentity is the byte-identity gate: for the request stream
// behind the golden ledger, propose, apply and replay must each reproduce
// the recorded headers, receipts, ¯M, state digest and d_C, and the
// recorded ledger must replay clean. Signing is deterministic, so the run
// must also re-issue the recorded stream byte for byte, signatures
// included. It runs at GOMAXPROCS=4 with 72-request batches, so all three
// policies digest entries beside execution and the replay runs its
// pipeline.
func TestGoldenByteIdentity(t *testing.T) {
	forceParallel(t)
	raw, stream, golden := readGolden(t)
	key := hashsig.GenerateKeyFromSeed(goldenKeySeed)
	pub := key.Public()
	reqs := goldenRequests(stream)
	want := strings.Join(golden, "\n")
	wantFinal := golden[len(golden)-1]

	// The recorded bytes replay clean, to the recorded summary.
	res, err := Replay(stream, pub, KVApp{}, nil)
	if err != nil {
		t.Fatalf("recorded ledger does not replay: %v", err)
	}
	if got := goldenFinal(res.HistSize, res.HistRoot, res.StateDigest, res.CkptDigest); got != wantFinal {
		t.Fatalf("replay of the recorded ledger:\n got %s\nwant %s", got, wantFinal)
	}

	// The run's subtest keeps the name it had beside the partitioned runs,
	// with bench/'s Shards: 1.
	t.Run("shards=1", func(t *testing.T) {
		primary, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: goldenCkpt, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		backup, err := New(Config{Key: hashsig.GenerateKeyFromSeed("ledger-golden-backup"), App: KVApp{}, CheckpointEvery: goldenCkpt, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		var proposed, applied []BatchHeader
		var rcs [][]Receipt
		for i := range reqs {
			b, r, err := primary.ExecuteBatch(reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			own, err := backup.ApplyBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			proposed, applied, rcs = append(proposed, b.Header), append(applied, *own), append(rcs, r)
		}
		var reissued bytes.Buffer
		if err := WriteBatches(&reissued, primary.Batches()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reissued.Bytes(), raw) {
			t.Fatalf("the run's stream (%d bytes) is not the recorded one (%d bytes), signatures included", reissued.Len(), len(raw))
		}
		got := goldenLines(proposed, rcs, primary.HistSize(), primary.HistRoot(), primary.StateDigest(), proposed[len(proposed)-1].CkptDigest)
		if g := strings.Join(got, "\n"); g != want {
			t.Fatalf("propose diverges from the recorded ledger:\n got\n%s\nwant\n%s", g, want)
		}
		got = goldenLines(applied, rcs, backup.HistSize(), backup.HistRoot(), backup.StateDigest(), applied[len(applied)-1].CkptDigest)
		if g := strings.Join(got, "\n"); g != want {
			t.Fatalf("apply diverges from the recorded ledger:\n got\n%s\nwant\n%s", g, want)
		}
		checkTrieRoots(t, "propose", primary)
		checkTrieRoots(t, "apply", backup)
		res, err := Replay(primary.Batches(), pub, KVApp{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g := goldenFinal(res.HistSize, res.HistRoot, res.StateDigest, res.CkptDigest); g != wantFinal {
			t.Fatalf("replay diverges from the recorded ledger:\n got %s\nwant %s", g, wantFinal)
		}
	})
}
