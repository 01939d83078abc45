package consensus

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
)

// routed is one message with its sender, for delivery that — like every real
// transport — never loops a message back to the replica that emitted it.
type routed struct {
	from ReplicaID
	msg  Message
}

// deliverFIFO hands every queued message to every replica but its sender,
// in order, queueing what they emit, until nothing is left.
func deliverFIFO(reps []*Replica, queue []routed) {
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, r := range reps {
			if r.ID() == e.from {
				continue
			}
			out, _ := r.Handle(e.msg)
			for _, o := range out {
				queue = append(queue, routed{r.ID(), o.Msg})
			}
		}
	}
}

// TestSignaturesPerBatch asserts the protocol's signature bill as a count: one
// signed statement per replica per batch. At n = 4 the primary signs the
// header (1); each backup verifies it (3), signs its prepare (3) and
// verifies the other two backups' prepares (6); the primary verifies all
// three prepares (3) and never its own statement coming back. 4 signs and
// 12 verifies — it was 8 and 15 while the header and the proposal were
// signed separately and every backup co-signed the header. In general n
// signs and n(n−1) verifies: 7 and 42 at n = 7. A ledger on its own pays 1
// and 0.
func TestSignaturesPerBatch(t *testing.T) {
	const batches = 32
	for _, n := range []int{4, 7} {
		reps := make([]*Replica, n)
		for i := range reps {
			// Distinct key objects per replica, as in separate processes:
			// nothing is shared that a verification could be remembered on.
			peers := make([]*hashsig.PublicKey, n)
			for j := range peers {
				peers[j] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("sig-bill-%d", j)).Public()
			}
			r, err := New(Config{
				ID: ReplicaID(i), Key: hashsig.GenerateKeyFromSeed(fmt.Sprintf("sig-bill-%d", i)), Peers: peers,
				App: ledger.KVApp{}, CheckpointEvery: 4, Window: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = r
		}
		author := hashsig.Sum([]byte("client"))
		for b := uint64(1); b <= batches; b++ {
			signs, verifies := hashsig.Counts()
			pp, _, err := reps[0].Propose(reqs(author, 10*b, 3))
			if err != nil {
				t.Fatal(err)
			}
			deliverFIFO(reps, []routed{{0, pp}})
			for _, r := range reps {
				if r.Committed() != b || r.InFlight() != 0 {
					t.Fatalf("n=%d batch %d: %s", n, b, r.DebugState())
				}
			}
			s, v := hashsig.Counts()
			if s-signs != uint64(n) || v-verifies != uint64(n*(n-1)) {
				t.Fatalf("n=%d batch %d cost %d signs and %d verifies, want %d and %d", n, b, s-signs, v-verifies, n, n*(n-1))
			}
		}
	}

	author := hashsig.Sum([]byte("client"))
	led, err := ledger.New(ledger.Config{Key: hashsig.GenerateKeyFromSeed("sig-bill-bare"), App: ledger.KVApp{}})
	if err != nil {
		t.Fatal(err)
	}
	signs, verifies := hashsig.Counts()
	if _, _, err := led.ExecuteBatch(reqs(author, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if s, v := hashsig.Counts(); s-signs != 1 || v != verifies {
		t.Fatalf("a bare ExecuteBatch cost %d signs and %d verifies, want 1 and 0", s-signs, v-verifies)
	}
}

// TestStaleMessagesAreDroppedUnverified: a message whose slot has already
// been decided, or whose view the replica has left, is dropped on its
// coordinates alone — no signature is checked, because the verdict would be
// discarded, and nothing is buffered. The same bytes aimed at a live slot
// are verified and rejected, which is what shows the drop is the staleness
// rule and not a hole.
func TestStaleMessagesAreDroppedUnverified(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	for b := uint64(1); b <= 2; b++ {
		c.propose(0, reqs(author, 10*b, 2))
		c.flood()
	}
	c.assertAgreement(2, 0, 1, 2, 3)
	r := c.replicas[3]
	latest := r.Ledger().BatchAt(r.Committed())

	// Validly structured, garbage signatures throughout.
	forge := func(h ledger.BatchHeader) (*Prepare, *PrePrepare) {
		h.Sig = []byte("garbage")
		return &Prepare{ledger.Prepare{Replica: 2, Header: h, NonceCommit: hashsig.Sum([]byte("n")), Sig: []byte("garbage")}},
			&PrePrepare{Header: h}
	}
	unverified := func(what string, m Message) {
		t.Helper()
		_, verifies := hashsig.Counts()
		resident, buffered := r.sigOK.Len(), len(r.future)
		out, err := r.Handle(m)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: got %d envelopes, err %v; want a silent drop", what, len(out), err)
		}
		if _, v := hashsig.Counts(); v != verifies {
			t.Fatalf("%s cost %d signature verifications, want 0", what, v-verifies)
		}
		if r.sigOK.Len() != resident || len(r.future) != buffered {
			t.Fatalf("%s changed replica state", what)
		}
	}
	latePrep, latePP := forge(latest.Header)
	unverified("a late prepare for a committed slot", latePrep)
	unverified("a pre-prepare for a committed slot", latePP)
	unverified("a later view's commit for a committed slot", &Commit{View: 7, Replica: 2, Seq: latest.Header.Seq})

	// The same forgeries for a slot that is still open are checked.
	live := latest.Header
	live.Seq = r.Committed() + 1
	livePrep, livePP := forge(live)
	for what, m := range map[string]Message{"prepare": livePrep, "pre-prepare": livePP} {
		_, verifies := hashsig.Counts()
		if _, err := r.Handle(m); !errors.Is(err, ErrInvalid) {
			t.Fatalf("forged %s for a live slot: err = %v, want ErrInvalid", what, err)
		}
		if _, v := hashsig.Counts(); v == verifies {
			t.Fatalf("forged %s for a live slot was rejected without a signature check", what)
		}
	}

	// Once the replica is in view 1, view 0's proposal for that open slot is
	// about a view it left.
	nv, _ := viewChangeTo1(t, c)
	if _, err := r.Handle(nv); err != nil || r.View() != 1 {
		t.Fatalf("replica 3 did not enter view 1: %v", err)
	}
	unverified("a pre-prepare of a view the replica left", livePP)
}

// viewChangeTo1 times replicas 1-3 out of view 0 and returns what the new
// primary (replica 1) emits on forming the view-1 certificate: the new-view
// message and its re-proposals. Replicas 2 and 3 have not seen any of it.
func viewChangeTo1(t *testing.T, c *cluster) (nv *NewView, reproposals []*PrePrepare) {
	t.Helper()
	var vcs []Message
	for _, id := range []int{1, 2, 3} {
		vcs = append(vcs, outMsgs(c.replicas[id].OnTimeout())...)
	}
	var out []Outbound
	for _, m := range vcs {
		o, err := c.replicas[1].Handle(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	for _, m := range outMsgs(out) {
		switch msg := m.(type) {
		case *NewView:
			nv = msg
		case *PrePrepare:
			reproposals = append(reproposals, msg)
		}
	}
	if nv == nil || c.replicas[1].View() != 1 {
		t.Fatal("replica 1 did not form view 1")
	}
	return nv, reproposals
}

// prepareFor returns the prepare among outs, which must answer stmt.
func prepareFor(t *testing.T, outs []Outbound, stmt *ledger.BatchHeader) *Prepare {
	t.Helper()
	for _, m := range outMsgs(outs) {
		if p, ok := m.(*Prepare); ok {
			if p.Header.StatementDigest() != stmt.StatementDigest() {
				t.Fatal("prepare answers another statement than the one delivered")
			}
			return p
		}
	}
	t.Fatal("no prepare emitted")
	return nil
}

// TestReproposalOfCommittedBatchIsIgnored: a batch committed under view 0
// comes back under the view-1 primary's statement. A replica that committed
// it has nothing to re-agree: the message costs no signature check, draws no
// answer, and the ledger keeps the pre-prepare the batch committed under. A
// new primary, for its part, re-proposes nothing that it committed.
func TestReproposalOfCommittedBatchIsIgnored(t *testing.T) {
	c := newCluster(t, 4)
	c.propose(0, reqs(hashsig.Sum([]byte("client")), 10, 2))
	old := c.queue[0].(*PrePrepare)
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)

	nv, reproposals := viewChangeTo1(t, c)
	if len(reproposals) != 0 {
		t.Fatalf("new primary re-proposed %d committed batches", len(reproposals))
	}
	pp := &PrePrepare{Header: c.replicas[1].Ledger().Restate(&old.Header, envelope(1, 1)), Entries: old.Entries}
	if pp.Header.ContentDigest() != old.Header.ContentDigest() || !pp.Header.Verify(c.keys[1].Public()) {
		t.Fatal("test did not restate the committed batch under view 1")
	}
	r := c.replicas[2]
	if _, err := r.Handle(nv); err != nil || r.View() != 1 {
		t.Fatalf("replica 2 did not enter view 1: %v", err)
	}
	signs, verifies := hashsig.Counts()
	out, err := r.Handle(pp)
	if err != nil || len(out) != 0 {
		t.Fatalf("re-proposal of a committed batch: %d envelopes, err %v; want it ignored", len(out), err)
	}
	if s, v := hashsig.Counts(); s != signs || v != verifies {
		t.Fatalf("re-proposal of a committed batch cost %d signs and %d verifies, want 0 and 0", s-signs, v-verifies)
	}
	if got := r.Ledger().BatchAt(1).Header.StatementDigest(); got != old.Header.StatementDigest() || r.InFlight() != 0 {
		t.Fatal("re-proposal disturbed the committed pre-prepare")
	}
}

// TestLaggardFetchesAcrossViews: seq 1 commits under view 0 and seq 2 under
// view 1 while replica 3 hears neither. It asks, is offered the suffix above
// its own boundary under the view-1 certificate, fetches both batches and
// adopts them under the statements they committed with: a two-view ledger
// that the keyed replay accepts and no single key does.
func TestLaggardFetchesAcrossViews(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	c.propose(0, reqs(author, 10, 2))
	c.flood(3)
	c.assertAgreement(1, 0, 1, 2)

	nv, _ := viewChangeTo1(t, c)
	c.queue = append(c.queue, nv)
	c.flood()
	c.propose(1, reqs(author, 20, 2))
	c.flood(3)
	c.assertAgreement(2, 0, 1, 2)

	lag := c.replicas[3]
	if lag.Committed() != 0 || lag.View() != 1 {
		t.Fatalf("laggard is not where the test wants it: %s", lag.DebugState())
	}
	c.tickUntilAsking(lag)
	c.flood()
	c.assertAgreement(2, 0, 1, 2, 3)
	if lag.Syncs() != 1 || lag.Syncing() {
		t.Fatalf("laggard adopted %d transfers: %s", lag.Syncs(), lag.DebugState())
	}

	batches := lag.Ledger().Batches()
	if len(batches) != 2 || batches[0].Header.View != 0 || batches[1].Header.View != 1 {
		t.Fatalf("laggard's ledger does not hold the view-0 and view-1 statements the batches committed under")
	}
	peers := lag.cfg.Peers
	got, err := ledger.ReplayKeyed(batches, ledger.StatementKey(peers), ledger.KVApp{}, nil)
	if err != nil || got.HistRoot != lag.Ledger().HistRoot() || got.StateDigest != lag.Ledger().StateDigest() {
		t.Fatalf("keyed replay of the fetched ledger: %v", err)
	}
	for i, pub := range peers {
		if _, err := ledger.Replay(batches, pub, ledger.KVApp{}, nil); err == nil {
			t.Fatalf("two-view ledger replays under replica %d's key alone", i)
		}
	}
}

// TestPinnedReproposalIsByContent: a batch prepared in view 0 pins view 1's
// primary to its content. The pinned backup accepts the batch under the new
// primary's statement — and then holds that pre-prepare — but rejects any
// other content at the pinned seq, validly signed or not.
func TestPinnedReproposalIsByContent(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	pp0, _, err := c.replicas[0].Propose(reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	var prepares []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pp0)
		if err != nil {
			t.Fatal(err)
		}
		prepares = append(prepares, outMsgs(out)...)
	}
	for _, m := range prepares {
		for _, id := range []int{1, 2, 3} {
			c.replicas[id].Handle(m) // commits withheld: prepared, never committed
		}
	}

	nv, reproposals := viewChangeTo1(t, c)
	if len(reproposals) != 1 {
		t.Fatalf("new primary re-proposed %d batches, want the prepared one", len(reproposals))
	}
	pp1 := reproposals[0]
	if pp1.Header.View != 1 || pp1.Header.ContentDigest() != pp0.Header.ContentDigest() ||
		pp1.Header.StatementDigest() == pp0.Header.StatementDigest() {
		t.Fatal("the prepared batch must come back with its content under a view-1 statement")
	}
	if h := c.replicas[1].Ledger().BatchAt(1).Header; h.StatementDigest() != pp1.Header.StatementDigest() {
		t.Fatal("new primary's ledger does not hold the statement it issued")
	}

	pinned := c.replicas[2]
	if _, err := pinned.Handle(nv); err != nil {
		t.Fatal(err)
	}
	if want, ok := pinned.mustRepropose[1]; !ok || want != pp0.Header.ContentDigest() {
		t.Fatal("replica 2 is not pinned to the prepared content")
	}
	out, err := pinned.Handle(pp1)
	if err != nil {
		t.Fatalf("pinned replica rejects the prepared batch under the new view's statement: %v", err)
	}
	prepareFor(t, out, &pp1.Header)
	if h := pinned.Ledger().BatchAt(1).Header; h.StatementDigest() != pp1.Header.StatementDigest() || !h.Verify(c.keys[1].Public()) {
		t.Fatal("pinned replica's ledger does not hold the pre-prepare it accepted")
	}

	// Replica 3 is pinned too, and is offered different content instead —
	// properly signed by the view-1 primary's key.
	scratch, err := ledger.New(ledger.Config{Key: c.keys[1], App: ledger.KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	evil, err := scratch.ExecuteBatchAs(fixed(envelope(1, 1)), reqs(author, 666, 2))
	if err != nil {
		t.Fatal(err)
	}
	other := c.replicas[3]
	if _, err := other.Handle(nv); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Handle(&PrePrepare{Header: evil.Header, Entries: evil.Entries}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("different content at a pinned seq: err = %v, want ErrInvalid", err)
	}
	if other.Ledger().Seq() != 1 {
		t.Fatal("rejected re-proposal left its execution in the ledger")
	}
}

// TestSecondNonceCommitmentIsNotEquivocation: at replica level, a second
// statement for a slot with the same content and another nonce commitment
// is neither accepted nor blamed; a second content is blamed, and the
// evidence verifies offline under the primary's key alone.
func TestSecondNonceCommitmentIsNotEquivocation(t *testing.T) {
	c := newCluster(t, 4)
	author := hashsig.Sum([]byte("client"))
	primary, backup := c.replicas[0], c.replicas[1]
	pp, _, err := primary.Propose(reqs(author, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Handle(pp); err != nil {
		t.Fatal(err)
	}
	renonced := &PrePrepare{Header: primary.Ledger().Restate(&pp.Header, envelope(0, 0)), Entries: pp.Entries}
	if renonced.Header.StatementDigest() == pp.Header.StatementDigest() {
		t.Fatal("a new nonce commitment left the statement unchanged")
	}
	if out, err := backup.Handle(renonced); err != nil || len(out) != 0 {
		t.Fatalf("same content under a second nonce commitment: %d envelopes, err %v; want it ignored", len(out), err)
	}
	if ev := backup.Evidence(); len(ev) != 0 {
		t.Fatalf("same content under a second nonce commitment produced blame: %v", ev[0])
	}

	scratch, err := ledger.New(ledger.Config{Key: c.keys[0], App: ledger.KVApp{}, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	evil, err := scratch.ExecuteBatchAs(fixed(envelope(0, 0)), reqs(author, 666, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Handle(&PrePrepare{Header: evil.Header, Entries: evil.Entries}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("second content for the slot: err = %v, want ErrInvalid", err)
	}
	ev := backup.Evidence()
	if len(ev) != 1 || ev[0].View != 0 || ev[0].Seq != 1 {
		t.Fatalf("want one blame at (view 0, seq 1), got %v", ev)
	}
	for i, k := range c.keys {
		if got := ev[0].Verify(k.Public()); got != (i == 0) {
			t.Fatalf("blame verifies under replica %d's key: %v", i, got)
		}
	}
}

// TestCommitCertBindsTheStatement: a certificate is about one pre-prepare.
// Prepares that validly sign another view's statement of the same content
// do not count toward it.
func TestCommitCertBindsTheStatement(t *testing.T) {
	c := newCluster(t, 4)
	c.propose(0, reqs(hashsig.Sum([]byte("client")), 10, 2))
	c.flood()
	c.assertAgreement(1, 0, 1, 2, 3)
	peers := c.replicas[0].cfg.Peers
	cert := c.replicas[2].Ledger().Cert(c.replicas[2].Committed())
	if cert == nil || !cert.Verify(peers) {
		t.Fatal("honest certificate does not verify")
	}

	// The same batch as view 1's primary would state it, and every backup's
	// prepare re-signed over that statement with the nonce commitments the
	// certificate's openings fit.
	restated := c.replicas[1].Ledger().Restate(&cert.Header, ledger.Envelope{View: 1, Primary: 1, NonceCommit: cert.Header.NonceCommit})
	forged := &ledger.CommitCert{Header: cert.Header, Opens: cert.Opens}
	for _, p := range cert.Prepares {
		q := ledger.Prepare{Replica: p.Replica, Header: restated, NonceCommit: p.NonceCommit}
		q.Sig = c.keys[p.Replica].MustSign(q.SigningDigest())
		if !q.Verify(peers[p.Replica]) {
			t.Fatal("test forged an invalid prepare")
		}
		forged.Prepares = append(forged.Prepares, q)
	}
	if _, ok := forged.Structure(peers); ok {
		t.Fatal("certificate whose prepares sign another view's statement passes structure")
	}
	if forged.Verify(peers) {
		t.Fatal("certificate whose prepares sign another view's statement verifies")
	}
}

// TestCommitCertHasOneByteForm: a certificate's prepares and openings are
// each strictly ascending by replica, as buildCommitCert emits them. A
// duplicate — which used to let a later prepare's nonce commitment replace
// an earlier one — or any other order is refused, so one commit has one
// certificate encoding.
func TestCommitCertHasOneByteForm(t *testing.T) {
	c := newCluster(t, 4)
	c.propose(0, reqs(hashsig.Sum([]byte("client")), 10, 2))
	c.flood()
	peers := c.replicas[0].cfg.Peers
	cert := c.replicas[2].Ledger().Cert(c.replicas[2].Committed())
	if cert == nil || !cert.Verify(peers) {
		t.Fatal("honest certificate does not verify")
	}
	if len(cert.Prepares) < 2 || len(cert.Opens) < 2 {
		t.Fatalf("certificate has %d prepares and %d openings; the rows need two of each", len(cert.Prepares), len(cert.Opens))
	}
	for name, mutate := range map[string]func(*ledger.CommitCert){
		"duplicate prepare": func(x *ledger.CommitCert) {
			x.Prepares = append(x.Prepares, x.Prepares[len(x.Prepares)-1])
		},
		"duplicate opening": func(x *ledger.CommitCert) {
			x.Opens = append(x.Opens, x.Opens[len(x.Opens)-1])
		},
		"descending prepares": func(x *ledger.CommitCert) { slices.Reverse(x.Prepares) },
		"descending openings": func(x *ledger.CommitCert) { slices.Reverse(x.Opens) },
	} {
		x := &ledger.CommitCert{Header: cert.Header, Prepares: slices.Clone(cert.Prepares), Opens: slices.Clone(cert.Opens)}
		mutate(x)
		if _, ok := x.Structure(peers); ok {
			t.Errorf("%s: passes structure", name)
		}
		if x.Verify(peers) {
			t.Errorf("%s: verifies", name)
		}
	}
}

// TestPreparedClaimHasOneForm: a view-change's prepared claim meets the
// rule a certificate's prepares meet (ledger.Prepared). A prepare from the
// claim's own primary or from outside the replica set does not count
// toward the quorum and is refused, not skipped, and so is any order but
// strictly ascending; the canonical claim that keepPrepared builds passes.
func TestPreparedClaimHasOneForm(t *testing.T) {
	c := newCluster(t, 4)
	pp, _, err := c.replicas[0].Propose(reqs(hashsig.Sum([]byte("client")), 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Seq 1 prepares at replicas 1-3; the commits are withheld.
	var prepares []Message
	for _, id := range []int{1, 2, 3} {
		out, err := c.replicas[id].Handle(pp)
		if err != nil {
			t.Fatal(err)
		}
		prepares = append(prepares, outMsgs(out)...)
	}
	for _, m := range prepares {
		for _, id := range []int{1, 2, 3} {
			c.replicas[id].Handle(m)
		}
	}
	var vc *ViewChange
	for _, m := range outMsgs(c.replicas[1].OnTimeout()) {
		if v, ok := m.(*ViewChange); ok {
			vc = v
		}
	}
	if vc == nil || len(vc.Prepared) != 1 || len(vc.Prepared[0].Prepares) < 2 {
		t.Fatalf("replica 1's view-change holds no prepared claim with two prepares: %+v", vc)
	}
	extra := func(id ReplicaID, key *hashsig.PrivateKey) ledger.Prepare {
		q := ledger.Prepare{Replica: id, Header: pp.Header, NonceCommit: hashsig.Sum([]byte("extra"))}
		q.Sig = key.MustSign(q.SigningDigest())
		return q
	}
	for _, row := range []struct {
		name   string
		mutate func([]ledger.Prepare) []ledger.Prepare
		ok     bool
	}{
		{"canonical", func(ps []ledger.Prepare) []ledger.Prepare { return ps }, true},
		{"descending prepares", func(ps []ledger.Prepare) []ledger.Prepare { slices.Reverse(ps); return ps }, false},
		{"prepare by the primary", func(ps []ledger.Prepare) []ledger.Prepare {
			return append([]ledger.Prepare{extra(0, c.keys[0])}, ps...)
		}, false},
		{"prepare from replica n", func(ps []ledger.Prepare) []ledger.Prepare {
			return append(ps, extra(4, hashsig.GenerateKeyFromSeed("outsider")))
		}, false},
	} {
		x := *vc
		x.Prepared = []PreparedProof{{PP: vc.Prepared[0].PP, Prepares: row.mutate(slices.Clone(vc.Prepared[0].Prepares))}}
		x.Sig = c.keys[1].MustSign(x.SigningDigest())
		err := c.replicas[2].validateViewChange(&x)
		if row.ok && err != nil {
			t.Errorf("%s: refused: %v", row.name, err)
		}
		if !row.ok && !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", row.name, err)
		}
	}
}
