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

// TestRestoreShardedTruncatedAtEveryOffset cuts a valid stream at every
// byte boundary, unsharded and sharded: no prefix may restore, panic, or
// return a store, and each cut must fail with an error that names the frame
// it broke in (header, or the shard index mid-stream) rather than a bare io
// error.
func TestRestoreShardedTruncatedAtEveryOffset(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := populatedSharded(t, shards)
		var buf bytes.Buffer
		if err := s.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		sawShardFrame := false
		for cut := 0; cut < len(full); cut++ {
			_, err := RestoreSharded(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Fatalf("shards %d: stream truncated at %d/%d restored", shards, cut, len(full))
			}
			msg := err.Error()
			if !strings.Contains(msg, "kv: restore") {
				t.Fatalf("shards %d: truncation at %d: undescriptive error %q", shards, cut, msg)
			}
			if strings.Contains(msg, "shard ") && strings.Contains(msg, fmt.Sprintf(" of %d", shards)) {
				sawShardFrame = true
			}
		}
		if !sawShardFrame {
			t.Fatalf("shards %d: no truncation error ever named the shard frame it broke in", shards)
		}
		if _, err := RestoreSharded(bytes.NewReader(full)); err != nil {
			t.Fatalf("shards %d: untruncated stream rejected: %v", shards, err)
		}
	}
}

// TestRestoreOversizedDeclarations feeds streams whose length fields
// declare more than the stream (or the codec's limits) can hold.
func TestRestoreOversizedDeclarations(t *testing.T) {
	// Each case is the one shard of a one-shard stream.
	cases := map[string][]byte{
		// Entry count far beyond the bytes that follow.
		"entry count": {0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		// One entry whose key length is hostile.
		"key length": {0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
		// One entry with a plausible key but a hostile value length.
		"value length": append(append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1}, 'k'), 0xff, 0xff, 0xff, 0xff),
	}
	for name, shard := range cases {
		stream := append([]byte{0, 0, 0, 1}, shard...)
		if _, err := RestoreSharded(bytes.NewReader(stream)); err == nil {
			t.Fatalf("%s: oversized declaration restored", name)
		}
	}
	// Sharded header declaring more shards than the codec allows.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := RestoreSharded(bytes.NewReader(huge)); err == nil {
		t.Fatal("hostile shard count restored")
	}
}

// TestRestoreShardedForAuditsShardCount: a stream with a valid but
// different partition than the restoring replica's configuration must be
// rejected before any shard bytes are read.
func TestRestoreShardedForAuditsShardCount(t *testing.T) {
	s := populatedSharded(t, 4)
	var buf bytes.Buffer
	if err := s.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreShardedFor(bytes.NewReader(buf.Bytes()), 2); err == nil {
		t.Fatal("4-shard stream restored into a 2-shard store")
	} else if msg := err.Error(); !strings.Contains(msg, "4") || !strings.Contains(msg, "2") {
		t.Fatalf("shard-count mismatch error %q names neither count", msg)
	}
	got, err := RestoreShardedFor(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("matching-count restore changed the digest")
	}
	// wantShards 0 accepts any valid count.
	if _, err := RestoreShardedFor(bytes.NewReader(buf.Bytes()), 0); err != nil {
		t.Fatal(err)
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
