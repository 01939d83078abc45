package kv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// populated builds a small store.
func populated(t *testing.T) *Store {
	t.Helper()
	s := New()
	tx := s.Begin()
	for i := 0; i < 16; i++ {
		tx.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	tx.Commit()
	return s
}

// TestRestoreShardedTruncatedAtEveryOffset restores a store (InstallShard, the
// socket-fed decoder) from its chunk cut at every byte boundary: no prefix
// may install, panic, or change the store, and each cut must fail with an
// error that names the entry frame it broke in rather than a bare io
// error.
func TestRestoreShardedTruncatedAtEveryOffset(t *testing.T) {
	s := populated(t)
	got := NewSharded(1)
	var buf bytes.Buffer
	if err := s.SerializeShard(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	before := got.CheckpointDigest()
	for cut := 0; cut < len(full); cut++ {
		err := got.InstallShard(full[:cut], s.CheckpointDigest())
		if err == nil {
			t.Fatalf("chunk truncated at %d/%d installed", cut, len(full))
		}
		if msg := err.Error(); !strings.Contains(msg, "kv: restore") || !strings.Contains(msg, "entry") {
			t.Fatalf("truncation at %d: error %q does not name an entry frame", cut, msg)
		}
	}
	if got.CheckpointDigest() != before {
		t.Fatal("a truncated chunk changed the store")
	}
	if err := got.InstallShard(full, s.CheckpointDigest()); err != nil {
		t.Fatalf("untruncated chunk rejected: %v", err)
	}
	if got.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("restored store does not reproduce d_C")
	}
}

// TestRestoreOversizedDeclarations feeds a store chunks whose
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
	s := New()
	for name, chunk := range cases {
		if err := s.InstallShard(chunk, s.CheckpointDigest()); err == nil {
			t.Fatalf("%s: oversized declaration installed", name)
		}
	}
}

// TestInstallShard covers the chunk guardrails the state-transfer path
// relies on: a chunk is installed only if it decodes exactly and rebuilds
// to the certified d_C — and a refused chunk leaves the candidate store as
// it was.
func TestInstallShard(t *testing.T) {
	s := populated(t)
	want := s.CheckpointDigest()
	var buf bytes.Buffer
	if err := s.SerializeShard(&buf); err != nil {
		t.Fatal(err)
	}
	chunk := buf.Bytes()
	got := New()
	refuse := func(what string, chunk []byte) {
		t.Helper()
		before := got.CheckpointDigest()
		if err := got.InstallShard(chunk, want); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if got.CheckpointDigest() != before {
			t.Fatalf("%s refused, but the store changed", what)
		}
	}
	refuse("chunk with trailing data", append(append([]byte(nil), chunk...), 0x00))
	refuse("chunk truncated mid-frame", chunk[:len(chunk)-1])

	// A chunk that decodes cleanly and differs from the certified contents
	// in one value: well-formed, wrong.
	other := s.Clone()
	var key string
	other.ShardSnapshot().Range(func(k string, _ []byte) bool { key = k; return false })
	tx := other.Begin()
	tx.Put(key, []byte("forged"))
	tx.Commit()
	var forged bytes.Buffer
	if err := other.SerializeShard(&forged); err != nil {
		t.Fatal(err)
	}
	refuse("well-formed chunk with different contents", forged.Bytes())
	// ... and one key short.
	tx = other.Begin()
	tx.Delete(key)
	tx.Commit()
	forged.Reset()
	if err := other.SerializeShard(&forged); err != nil {
		t.Fatal(err)
	}
	refuse("well-formed chunk missing a key", forged.Bytes())

	if err := got.InstallShard(chunk, want); err != nil {
		t.Fatal(err)
	}
	if got.CheckpointDigest() != s.CheckpointDigest() {
		t.Fatal("store installed from the chunk does not reproduce the serving store's d_C")
	}
}
