package consensus

import (
	"fmt"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
)

type probeApp struct{}

func (probeApp) Execute(tx *kv.Tx, payload []byte) error { return nil }

func TestHeaderSigCacheCrossKeyProbe(t *testing.T) {
	n := 4
	keys := make([]*hashsig.PrivateKey, n)
	pubs := make([]*hashsig.PublicKey, n)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("cache-probe-%d", i))
		pubs[i] = keys[i].Public()
	}
	mk := func(id ReplicaID) *Replica {
		r, err := New(Config{ID: id, Key: keys[id], Peers: pubs, App: probeApp{}, CheckpointEvery: 4, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	primary := mk(0) // primary of view 0
	backup := mk(1)
	pp, _, err := primary.Propose([]ledger.Request{})
	if err != nil {
		t.Fatal(err)
	}
	// First delivery: valid, caches the header digest.
	if _, err := backup.Handle(pp); err != nil {
		t.Fatalf("valid pre-prepare rejected: %v", err)
	}
	// Same statement, other signature bytes: the set is keyed on the
	// signature as well as the digest, so the warm replica must not vouch.
	evil := *pp
	evil.Header.Sig = []byte("garbage")
	if err := backup.verifyStatement(&evil.Header); err == nil {
		t.Errorf("BUG CONFIRMED: pre-prepare with a garbage signature passes verifyStatement (cache hit)")
	}
	// Fresh backup with cold cache rejects it too: no divergent validation.
	cold := mk(2)
	if err := cold.verifyStatement(&evil.Header); err == nil {
		t.Errorf("cold replica also accepts a garbage signature?!")
	}
}
