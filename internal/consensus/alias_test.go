package consensus

import (
	"bytes"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// TestEncodedFramesSurvivePoolReuse is the aliasing property for the
// message codec: an encoded frame handed to the transport, and the entry
// payloads of a message decoded from such a frame, must not share backing
// memory with anything the replicas reuse. The test commits one sequence
// while retaining every frame it produced (and a decode of each), then
// commits another sequence — writing the ledgers' history trees and stores
// again — and asserts the retained frames are byte-identical, still
// decode, and that the earlier decodes' payloads are untouched.
func TestEncodedFramesSurvivePoolReuse(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("alias-client"))

	// commit floods one proposal to quiescence through encoded frames
	// (unlike cluster.flood, which passes Message values), returning every
	// frame that crossed the wire.
	commit := func(seq uint64) [][]byte {
		t.Helper()
		pp, _, err := c.replicas[0].Propose(reqs(author, seq*1000, 48))
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		pending := []Message{pp}
		for len(pending) > 0 {
			var next []Message
			for _, m := range pending {
				f := EncodeMessage(m)
				frames = append(frames, f)
				dm, err := DecodeMessage(f)
				if err != nil {
					t.Fatalf("decode own frame: %v", err)
				}
				for _, r := range c.replicas {
					out, _ := r.Handle(dm)
					for _, o := range out {
						next = append(next, o.Msg)
					}
				}
			}
			pending = next
		}
		for _, r := range c.replicas {
			if r.Committed() != seq {
				t.Fatalf("replica %d at seq %d, want %d", r.ID(), r.Committed(), seq)
			}
		}
		return frames
	}

	first := commit(1)
	copies := make([][]byte, len(first))
	var keptPayloads [][]byte
	var keptEntries []ledger.Entry
	for i, f := range first {
		copies[i] = append([]byte(nil), f...)
		m, err := DecodeMessage(f)
		if err != nil {
			t.Fatal(err)
		}
		if pp, ok := m.(*PrePrepare); ok {
			for ei := range pp.Entries {
				keptEntries = append(keptEntries, pp.Entries[ei])
				keptPayloads = append(keptPayloads, append([]byte(nil), pp.Entries[ei].Payload...))
			}
		}
	}
	if len(keptPayloads) == 0 {
		t.Fatal("no pre-prepare entries captured; harness broken")
	}

	commit(2)

	for i, f := range first {
		if !bytes.Equal(f, copies[i]) {
			t.Fatalf("frame %d mutated after another commit", i)
		}
		if _, err := DecodeMessage(f); err != nil {
			t.Fatalf("frame %d no longer decodes: %v", i, err)
		}
	}
	for i := range keptEntries {
		if !bytes.Equal(keptEntries[i].Payload, keptPayloads[i]) {
			t.Fatalf("decoded entry %d payload mutated after another commit", i)
		}
	}
}
