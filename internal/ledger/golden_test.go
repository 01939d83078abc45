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
// the last commit with three separate derivation loops; regenerated when
// d_C became the Merkle root of the tries, again when the header became the
// whole pre-prepare statement, and re-signed — nothing else — when hashsig
// went to Ed25519).
const (
	goldenStream  = "testdata/golden_s4.stream"
	goldenDigests = "testdata/golden.txt"
	goldenKeySeed = "ledger-golden-replica"
	goldenCkpt    = 2
)

// goldenPinned is what ties the regenerated files to their predecessors:
// golden.txt line by line as the commit before the header change (9db225c)
// had it, minus the one field that change touched — every content digest
// and every final line, byte for byte. The header change moved the
// envelope and the signature preimage; derivation is untouched, so only
// the receipts digests (a receipt encodes its header, envelope included)
// and the stream's framing differ. Batch 1's content digests and the 217
// are still d6cf8cd's: batch 1 precedes the first checkpoint marker.
var goldenPinned = []string{
	"batch 1 1 90838639661e81728332a0913140fe59be34453db3aeb410d25109644e1d3708 ",
	"batch 1 2 7c014a4fe815c448bc841647a47a3fc38f1c24e879bd72e52d9671526d8f30a9 ",
	"batch 1 3 91c28403da6783cdd1b86867b6e1e9e3b77be2a1dcf966e1d169c0b53eda27aa ",
	"final 1 217 54339c59b66cc9a6adfe903f2ba044b06b04538870b10b9544f9e89684a6239a 48737f7bbb59cfc6eb9e9073716e2f8605ae0e07fa87478ff0b420282f94753c 8dfcd2acef7c12ea10a1b785f539a5736fae005f6a872ab1ec08e2653340f32f",
	"batch 4 1 5a4906a779a27afec4cc3afa14911a2d7587c8fe483c533b7a312b7ce1836e4b ",
	"batch 4 2 1c6262a6670e4582c8a76643827572742634782b7a54b7368e5d5f156bf043b5 ",
	"batch 4 3 4ddbae1e4ff3fb10283a767cf89a38873350c3578564d68cd73ce931b34ce908 ",
	"final 4 217 8136af3df3b8205dfcf47c242c5ac7d2d650782df8ecd403bb566309e0a64e36 9df0f16580fdb31b3b6608265b2cc0bc8954ca3ea0f88edd0a5454948f5ea4bc 72bc5ba71f3e7509dd69200b97b002d07db5fe1bdea641d1cad2e0197b1605ad",
	"batch 16 1 e255799293a56f2ac57d0341f3bdf7a6cba1aed29c778c95531f62f25fa0f2ba ",
	"batch 16 2 6922a7a6882ce5274abdd2abdb7e411b1c9aa9bd5128b1d0a684dc5b381a2229 ",
	"batch 16 3 7906826359c23c0ea6d6ddd0d146f58ea5277ae665bd467186ca5e3454e4d180 ",
	"final 16 217 0d173a0811d08127644d55387dea6460048b755845dac9c5b09cdfa9e0d9cafc 3e0f95d7dbb0683e055008d1fd07e8e70d5a5e63fc6e8726d7db8f0de9a6a4ad 77b4ce4f7f1db570cf5df9aa2c0b675a410c05e784f44f311f87744714beb312",
}

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
func goldenLines(shards uint32, headers []BatchHeader, rcs [][]Receipt, histSize uint64, histRoot, state, ckpt hashsig.Digest) []string {
	var out []string
	for i := range headers {
		hd, rd := headers[i].ContentDigest(), receiptsDigest(rcs[i])
		out = append(out, fmt.Sprintf("batch %d %d %x %x", shards, headers[i].Seq, hd[:], rd[:]))
	}
	return append(out, goldenFinal(shards, histSize, histRoot, state, ckpt))
}

// goldenFinal renders a run's closing summary line. Digests print through
// d[:] — hashsig.Digest is a Stringer that abbreviates to 8 bytes.
func goldenFinal(shards uint32, histSize uint64, histRoot, state, ckpt hashsig.Digest) string {
	return fmt.Sprintf("final %d %d %x %x %x", shards, histSize, histRoot[:], state[:], ckpt[:])
}

func readGolden(t *testing.T) (raw []byte, stream []*Batch, lines map[uint32][]string) {
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
	if got := len(lines[1]) + len(lines[4]) + len(lines[16]); got != len(goldenPinned) {
		t.Fatalf("golden.txt has %d lines, want %d", got, len(goldenPinned))
	}
	i := 0
	for _, shards := range []uint32{1, 4, 16} {
		for _, l := range lines[shards] {
			if want := goldenPinned[i]; !strings.HasPrefix(l, want) || (strings.HasPrefix(l, "final ") && l != want) {
				t.Fatalf("golden.txt line %q is not 9db225c's %q", l, want)
			}
			i++
		}
	}
	return raw, stream, lines
}

// TestGoldenByteIdentity is the byte-identity gate: for the request stream
// behind the golden ledger, propose, apply and replay must each reproduce
// the recorded headers, receipts, ¯M, state digest and d_C under shards
// 1/4/16, and the recorded ledger must replay clean. Signing is
// deterministic, so the 4-shard run must also re-issue the recorded stream
// byte for byte, signatures included. It runs at GOMAXPROCS=4 with
// 72-request batches, so all three policies digest entries beside
// execution and the replay runs its pipeline.
func TestGoldenByteIdentity(t *testing.T) {
	forceParallel(t)
	raw, stream, golden := readGolden(t)
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
			if shards == 4 {
				var reissued bytes.Buffer
				if err := WriteBatches(&reissued, primary.Batches()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reissued.Bytes(), raw) {
					t.Fatalf("the 4-shard run's stream (%d bytes) is not the recorded one (%d bytes), signatures included", reissued.Len(), len(raw))
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
