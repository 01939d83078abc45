package kv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// populatedSharded builds a small multi-shard store with keys spread across
// every shard.
func populatedSharded(t *testing.T, shards int) *ShardedStore {
	t.Helper()
	s := NewSharded(shards)
	tx := s.Begin()
	for i := 0; i < 4*shards; i++ {
		tx.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	tx.Commit()
	return s
}

// TestRestoreShardedTruncatedAtEveryOffset restores a sharded store chunk
// by chunk (InstallShard, the socket-fed decoder) from every shard's chunk
// cut at every byte boundary, unsharded and sharded: no prefix may install,
// panic, or change the store, and each cut must fail with an error that
// names the shard frame it broke in rather than a bare io error.
func TestRestoreShardedTruncatedAtEveryOffset(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := populatedSharded(t, shards)
		got := NewSharded(shards)
		for i := 0; i < shards; i++ {
			var buf bytes.Buffer
			if err := s.SerializeShard(i, &buf); err != nil {
				t.Fatal(err)
			}
			full := buf.Bytes()
			frame := fmt.Sprintf("shard %d of %d", i, shards)
			before := got.CheckpointDigest()
			for cut := 0; cut < len(full); cut++ {
				err := got.InstallShard(i, full[:cut], s.ShardDigest(i))
				if err == nil {
					t.Fatalf("shards %d: shard %d truncated at %d/%d installed", shards, i, cut, len(full))
				}
				if msg := err.Error(); !strings.Contains(msg, "kv: restore") || !strings.Contains(msg, frame) {
					t.Fatalf("shards %d: truncation at %d: error %q does not name %q", shards, cut, msg, frame)
				}
			}
			if got.CheckpointDigest() != before {
				t.Fatalf("shards %d: a truncated chunk changed the store", shards)
			}
			if err := got.InstallShard(i, full, s.ShardDigest(i)); err != nil {
				t.Fatalf("shards %d: untruncated shard %d rejected: %v", shards, i, err)
			}
		}
		if got.CheckpointDigest() != s.CheckpointDigest() {
			t.Fatalf("shards %d: restored store does not reproduce d_C", shards)
		}
	}
}

// TestRestoreOversizedDeclarations feeds a one-shard store chunks whose
// length fields declare more than the chunk (or the codec's limits) can
// hold.
func TestRestoreOversizedDeclarations(t *testing.T) {
	cases := map[string][]byte{
		// Entry count far beyond the bytes that follow.
		"entry count": {0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		// One entry whose key length is hostile.
		"key length": {0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		// One entry with a plausible key but a hostile value length.
		"value length": append(append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}, 'k'), 0xff, 0xff, 0xff, 0xff),
	}
	s := NewSharded(1)
	for name, chunk := range cases {
		if err := s.InstallShard(0, chunk, s.ShardDigest(0)); err == nil {
			t.Fatalf("%s: oversized declaration installed", name)
		}
	}
}

// TestInstallShard covers the chunk guardrails the state-transfer path
// relies on: a chunk is installed only if it decodes exactly, holds only
// keys of its shard, and rebuilds to the certified shard digest — and a
// refused chunk leaves the candidate store as it was.
func TestInstallShard(t *testing.T) {
	s := populatedSharded(t, 4)
	want := s.ShardDigests()
	chunks := make([][]byte, 4)
	for i := range chunks {
		var buf bytes.Buffer
		if err := s.SerializeShard(i, &buf); err != nil {
			t.Fatal(err)
		}
		chunks[i] = buf.Bytes()
	}
	got := NewSharded(4)
	refuse := func(what string, i int, chunk []byte) {
		t.Helper()
		before := got.CheckpointDigest()
		if err := got.InstallShard(i, chunk, want[i]); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if got.CheckpointDigest() != before {
			t.Fatalf("%s refused, but the store changed", what)
		}
	}
	refuse("chunk with trailing data", 2, append(append([]byte(nil), chunks[2]...), 0x00))
	refuse("chunk truncated mid-frame", 1, chunks[1][:len(chunks[1])-1])
	refuse("chunk of another shard", 0, chunks[1])

	// A chunk that decodes cleanly, keeps every key in its shard, and
	// differs from the certified contents in one value: well-formed, wrong.
	other := s.Clone()
	var key string
	other.ShardSnapshot(3).Range(func(k string, _ []byte) bool { key = k; return false })
	tx := other.Begin()
	tx.Put(key, []byte("forged"))
	tx.Commit()
	var forged bytes.Buffer
	if err := other.SerializeShard(3, &forged); err != nil {
		t.Fatal(err)
	}
	refuse("well-formed chunk with different contents", 3, forged.Bytes())
	// ... and one key short.
	tx = other.Begin()
	tx.Delete(key)
	tx.Commit()
	forged.Reset()
	if err := other.SerializeShard(3, &forged); err != nil {
		t.Fatal(err)
	}
	refuse("well-formed chunk missing a key", 3, forged.Bytes())

	for i, c := range chunks {
		if err := got.InstallShard(i, c, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("store assembled from chunks does not reproduce the serving store's d_C")
	}
}
