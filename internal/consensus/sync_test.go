package consensus

import (
	"bytes"
	"errors"
	"testing"

	"iaccf/internal/kv"
	"iaccf/internal/ledger"
)

// TestSyncChunkVerifiedAgainstCertifiedVector puts a replica mid-fetch and
// serves it state chunks by hand. A chunk is judged at the chunk, by what
// d_C commits to: one that decodes cleanly, keeps every key in its shard
// and merely holds different contents is refused like a garbled one and
// leaves the slot open for the re-request; the honest chunk then fills it.
func TestSyncChunkVerifiedAgainstCertifiedVector(t *testing.T) {
	const shards = 4
	serving := kv.NewSharded(shards)
	tx := serving.Begin()
	for _, k := range []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"} {
		tx.Put(k, []byte("100"))
	}
	tx.Commit()
	shard := int(kv.ShardOfKey("alice", shards))
	chunkOf := func(s *kv.ShardedStore) []byte {
		var buf bytes.Buffer
		if err := s.SerializeShard(shard, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lying := serving.Clone()
	tx = lying.Begin()
	tx.Put("alice", []byte("999"))
	tx.Commit()

	r := newCluster(t, 4, shards).replicas[3]
	const source, ckptSeq = ReplicaID(1), uint64(2)
	r.sync.phase = syncFetching
	r.sync.offer = &syncOffer{source: source, ckptSeq: ckptSeq, shardDigests: serving.ShardDigests()}
	r.sync.store = kv.NewSharded(shards)
	r.sync.have = make([]bool, shards)
	r.sync.batch = make([]*ledger.Batch, 1) // a suffix batch still owed: no adoption here

	deliver := func(data []byte) error {
		var out []Outbound
		return r.handleSyncChunk(&SyncChunk{
			Replica: source, Requester: r.ID(), CkptSeq: ckptSeq,
			Kind: SyncChunkState, Index: uint64(shard), Data: data,
		}, &out)
	}
	garbled := chunkOf(serving)
	garbled[len(garbled)/2] ^= 0xff
	for what, data := range map[string][]byte{
		"garbled chunk": garbled,
		"well-formed chunk with different contents": chunkOf(lying),
	} {
		if err := deliver(data); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: got %v, want ErrInvalid", what, err)
		}
		if r.sync.have[shard] || r.sync.store.ShardSnapshot(shard).Len() != 0 {
			t.Fatalf("%s was recorded", what)
		}
	}
	if err := deliver(chunkOf(serving)); err != nil {
		t.Fatal(err)
	}
	if !r.sync.have[shard] || r.sync.store.ShardDigest(shard) != serving.ShardDigest(shard) {
		t.Fatal("honest chunk not installed")
	}
	if got, want := r.sync.missing(), shards-1+1; got != want {
		t.Fatalf("%d chunks missing, want %d", got, want)
	}
}
