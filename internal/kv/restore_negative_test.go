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

// TestNewShardedFromChunksNegative covers the chunk-assembly guardrails the
// state-transfer path relies on.
func TestNewShardedFromChunksNegative(t *testing.T) {
	s := populatedSharded(t, 4)
	chunks := make([][]byte, 4)
	for i := range chunks {
		var buf bytes.Buffer
		if err := s.SerializeShard(i, &buf); err != nil {
			t.Fatal(err)
		}
		chunks[i] = buf.Bytes()
	}
	got, err := NewShardedFromChunks(4, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("reassembled store digest diverges")
	}

	if _, err := NewShardedFromChunks(0, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewShardedFromChunks(MaxShards+1, nil); err == nil {
		t.Fatal("hostile shard count accepted")
	}
	if _, err := NewShardedFromChunks(4, chunks[:3]); err == nil {
		t.Fatal("missing chunk accepted")
	}
	// Trailing garbage after a chunk's declared entries.
	bad := append([][]byte(nil), chunks...)
	bad[2] = append(append([]byte(nil), chunks[2]...), 0x00)
	if _, err := NewShardedFromChunks(4, bad); err == nil {
		t.Fatal("chunk with trailing data accepted")
	}
	// A chunk truncated mid-frame.
	bad = append([][]byte(nil), chunks...)
	bad[1] = chunks[1][:len(chunks[1])-1]
	if _, err := NewShardedFromChunks(4, bad); err == nil {
		t.Fatal("truncated chunk accepted")
	}
	// Chunks swapped between shards: every key lands in the wrong slot.
	bad = append([][]byte(nil), chunks...)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := NewShardedFromChunks(4, bad); err == nil {
		t.Fatal("chunks smuggled into the wrong shards accepted")
	}
}
