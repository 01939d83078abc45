package ledger

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"iaccf/internal/hashsig"
)

// The golden files pin this package's commitments to recorded bytes; see
// testdata/README.md for their layout and provenance (written by d6cf8cd,
// the last commit with three separate derivation loops; regenerated once,
// when d_C became the Merkle root of the tries).
const (
	goldenStream  = "testdata/golden_s4.stream"
	goldenDigests = "testdata/golden.txt"
	goldenKeySeed = "ledger-golden-replica"
	goldenCkpt    = 2
)

// goldenUpstreamOfCkpt is what ties the regenerated files to d6cf8cd's:
// every line of that commit's golden.txt that no checkpoint digest enters
// — batch 1 precedes the first marker, so its header and receipts are
// d_C-free — and the history size of every run. The regeneration changed
// the files only downstream of d_C; these are held byte-for-byte.
var goldenUpstreamOfCkpt = map[uint32]string{
	1:  "batch 1 1 90838639661e81728332a0913140fe59be34453db3aeb410d25109644e1d3708 4df18c68809d25273a96d0c479860aa6af4df15b4f24757946a991d807dbf9a1",
	4:  "batch 4 1 5a4906a779a27afec4cc3afa14911a2d7587c8fe483c533b7a312b7ce1836e4b 966b9b3cf1d8068a450d3e6b362b33900b760f4b37ab8815d53007ea4970cbed",
	16: "batch 16 1 e255799293a56f2ac57d0341f3bdf7a6cba1aed29c778c95531f62f25fa0f2ba 3d9d0ab704a9151093e55b72ba7e1ac822c927a6ccb345b121be59be7ada9b0d",
}

const goldenHistSize = 217

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

// receiptsDigest hashes a batch's receipts in order, signatures excluded
// (ECDSA signatures are randomized; everything else is deterministic).
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
// plus a final summary, in the format of testdata/golden.txt.
func goldenLines(shards uint32, headers []BatchHeader, rcs [][]Receipt, histSize uint64, histRoot, state, ckpt hashsig.Digest) []string {
	var out []string
	for i := range headers {
		hd, rd := headers[i].SigningDigest(), receiptsDigest(rcs[i])
		out = append(out, fmt.Sprintf("batch %d %d %x %x", shards, headers[i].Seq, hd[:], rd[:]))
	}
	return append(out, goldenFinal(shards, histSize, histRoot, state, ckpt))
}

// goldenFinal renders a run's closing summary line. Digests print through
// d[:] — hashsig.Digest is a Stringer that abbreviates to 8 bytes.
func goldenFinal(shards uint32, histSize uint64, histRoot, state, ckpt hashsig.Digest) string {
	return fmt.Sprintf("final %d %d %x %x %x", shards, histSize, histRoot[:], state[:], ckpt[:])
}

func readGolden(t *testing.T) (stream []*Batch, lines map[uint32][]string) {
	t.Helper()
	raw, err := os.ReadFile(goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	stream, err = ReadBatches(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines = map[uint32][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kind string
		var shards uint32
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &kind, &shards); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		lines[shards] = append(lines[shards], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for shards, first := range goldenUpstreamOfCkpt {
		l := lines[shards]
		if len(l) == 0 || l[0] != first {
			t.Fatalf("golden.txt, %d shards: batch 1 is not d6cf8cd's", shards)
		}
		if want := fmt.Sprintf("final %d %d ", shards, goldenHistSize); !strings.HasPrefix(l[len(l)-1], want) {
			t.Fatalf("golden.txt, %d shards: final line %q does not start %q", shards, l[len(l)-1], want)
		}
	}
	return stream, lines
}

// TestGoldenByteIdentity is the byte-identity gate: for the request stream
// behind the golden ledger, propose, apply and replay must each reproduce
// the recorded headers, receipts, ¯M, state digest and d_C under shards
// 1/4/16, and the recorded ledger must replay clean. It runs at GOMAXPROCS=4 with 72-request batches, so under
// 4 and 16 shards all three policies go through the wave executor.
func TestGoldenByteIdentity(t *testing.T) {
	forceParallel(t)
	stream, golden := readGolden(t)
	key := hashsig.GenerateKeyFromSeed(goldenKeySeed)
	pub := key.Public()
	reqs := goldenRequests(stream)

	// The recorded bytes replay clean, to the recorded summary.
	res, err := Replay(stream, pub, KVApp{}, nil)
	if err != nil {
		t.Fatalf("recorded ledger does not replay: %v", err)
	}
	want := golden[4][len(golden[4])-1]
	if got := goldenFinal(4, res.HistSize, res.HistRoot, res.StateDigest, res.CkptDigest); got != want {
		t.Fatalf("replay of the recorded ledger:\n got %s\nwant %s", got, want)
	}

	for _, shards := range []uint32{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			primary, err := New(Config{Key: key, App: KVApp{}, CheckpointEvery: goldenCkpt, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			backupKey := hashsig.GenerateKeyFromSeed("ledger-golden-backup")
			backup, err := New(Config{Key: backupKey, App: KVApp{}, CheckpointEvery: goldenCkpt, Shards: shards})
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
				if shards == 4 {
					if len(b.Entries) != len(stream[i].Entries) {
						t.Fatalf("batch %d: %d entries, the recorded ledger has %d", b.Header.Seq, len(b.Entries), len(stream[i].Entries))
					}
					for j := range b.Entries {
						if !bytes.Equal(b.Entries[j].Encode(nil), stream[i].Entries[j].Encode(nil)) {
							t.Fatalf("batch %d entry %d differs from the recorded ledger", b.Header.Seq, j)
						}
					}
				}
			}
			wantLines := strings.Join(golden[shards], "\n")
			last := proposed[len(proposed)-1]
			got := goldenLines(shards, proposed, rcs, primary.HistSize(), primary.HistRoot(), primary.StateDigest(), last.CkptDigest)
			if g := strings.Join(got, "\n"); g != wantLines {
				t.Fatalf("propose diverges from the recorded ledger:\n got\n%s\nwant\n%s", g, wantLines)
			}
			got = goldenLines(shards, applied, rcs, backup.HistSize(), backup.HistRoot(), backup.StateDigest(), applied[len(applied)-1].CkptDigest)
			if g := strings.Join(got, "\n"); g != wantLines {
				t.Fatalf("apply diverges from the recorded ledger:\n got\n%s\nwant\n%s", g, wantLines)
			}
			res, err := Replay(primary.Batches(), pub, KVApp{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantFinal := golden[shards][len(golden[shards])-1]
			if g := goldenFinal(shards, res.HistSize, res.HistRoot, res.StateDigest, res.CkptDigest); g != wantFinal {
				t.Fatalf("replay diverges from the recorded ledger:\n got %s\nwant %s", g, wantFinal)
			}
		})
	}
}
