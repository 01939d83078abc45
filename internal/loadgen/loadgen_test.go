package loadgen

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
)

// cluster is an in-process cluster over real TCP transports.
type cluster struct {
	addrs []string // RPC addresses, by node
	pubs  []*hashsig.PublicKey
	nodes []*node.Node
	// stop shuts node i down as a crash would look to its clients and
	// peers: its RPC server closes, its run loop stops and its transport
	// closes. It is idempotent, and the test's cleanup calls it.
	stop []func()
}

// checkpointEvery is bootCluster's checkpoint interval: the batch at every
// multiple of it carries one checkpoint entry.
const checkpointEvery = 4

// bootCluster starts an in-process n-node cluster over real TCP
// transports.
func bootCluster(t *testing.T, n int, seed string) *cluster {
	t.Helper()
	c := &cluster{addrs: make([]string, n), pubs: make([]*hashsig.PublicKey, n)}
	keys := make([]*hashsig.PrivateKey, n)
	for i := 0; i < n; i++ {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s/%d", seed, i))
		c.pubs[i] = keys[i].Public()
	}
	// The RPC listeners are bound before the transport ports are reserved,
	// so no RPC listener can take a reserved port before its transport
	// binds it.
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	addrs := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	for i := 0; i < n; i++ {
		proxy := &transport.HandlerProxy{}
		tp, err := transport.ListenTCP(transport.TCPConfig{
			Self:    transport.NodeID(i),
			Addrs:   addrs,
			Handler: proxy.Handle,
		})
		if err != nil {
			t.Fatal(err)
		}
		clk := node.NewWallClock(2 * time.Millisecond)
		t.Cleanup(clk.Stop)
		nd, err := node.New(node.Config{
			Consensus: consensus.Config{
				ID:              consensus.ReplicaID(i),
				Key:             keys[i],
				Peers:           c.pubs,
				App:             ledger.KVApp{},
				CheckpointEvery: checkpointEvery,
			},
			Transport: tp,
			Clock:     clk,
		})
		if err != nil {
			tp.Close()
			t.Fatal(err)
		}
		proxy.Set(nd.InboundHandler())
		nd.Start()
		srv := rpc.Serve(lns[i], nd.Submit)
		var once sync.Once
		stop := func() {
			once.Do(func() {
				srv.Close()
				nd.Stop()
				tp.Close()
			})
		}
		t.Cleanup(stop)
		c.addrs[i] = srv.Addr().String()
		c.nodes = append(c.nodes, nd)
		c.stop = append(c.stop, stop)
	}
	return c
}

// wantAll fails the test unless every request of the run committed or came
// back duplicate, with no failures.
func wantAll(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	if want := cfg.Workers * cfg.Requests; res.Committed+res.Duplicates != want || res.Failures != 0 {
		t.Fatalf("committed %d + dup %d of %d requests, %d failed", res.Committed, res.Duplicates, want, res.Failures)
	}
}

// TestClusterAcceptance is the CI acceptance gate: boot a 4-replica
// cluster, drive it with concurrent loadgen workers (which verify every
// receipt client-side), and demand full commit. With LOADGEN_REPORT set,
// the throughput line is written there so CI can publish it as an
// artifact.
func TestClusterAcceptance(t *testing.T) {
	c := bootCluster(t, 4, "accept")
	cfg := Config{
		Addrs:    c.addrs,
		Pubs:     c.pubs,
		Workers:  4,
		Requests: 12,
		Timeout:  20 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAll(t, cfg, res)
	t.Logf("acceptance: %s", res)
	if path := os.Getenv("LOADGEN_REPORT"); path != "" {
		if err := os.WriteFile(path, []byte(res.String()+"\n"), 0o644); err != nil {
			t.Fatalf("write report: %v", err)
		}
	}
}

// TestWorkersOnBackupsCommit pins every worker to a backup: each request is
// forwarded to the primary and its receipt comes back from the backup the
// worker reached, verified client-side like any other, and nothing fails.
// (Node 0 is primary at the start; it receives the forwards.)
func TestWorkersOnBackupsCommit(t *testing.T) {
	c := bootCluster(t, 4, "backups")
	cfg := Config{
		Addrs:    c.addrs[1:],
		Pubs:     c.pubs,
		Workers:  3,
		Requests: 4,
		Seed:     "backup-load",
		Timeout:  20 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAll(t, cfg, res)
	if res.Committed == 0 {
		t.Fatalf("no receipt came back: %s", res)
	}
	if s := c.nodes[0].Stats(); s.Forwarded == 0 {
		t.Fatal("the primary received no forwards")
	}
}

// TestPrimaryKillUnderLoad stops the primary once the first requests have
// committed, with sixteen workers submitting. The survivors must replace it
// by their own timers — every replica a worker moved to holds its request,
// so it times the dead primary out — and finish the run: every request
// commits or comes back duplicate, none fails, the survivors reach a later
// view and agree on the history at their common watermark.
func TestPrimaryKillUnderLoad(t *testing.T) {
	c := bootCluster(t, 4, "kill")
	cfg := Config{
		Addrs:    c.addrs,
		Pubs:     c.pubs,
		Workers:  16,
		Requests: 16,
		Seed:     "kill-load",
		Timeout:  2 * time.Second,
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for c.nodes[0].CommittedSeqs() == 0 {
			time.Sleep(time.Millisecond)
		}
		c.stop[0]()
	}()
	res, err := Run(cfg)
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	wantAll(t, cfg, res)
	t.Logf("through the kill: %s", res)

	survivors := c.nodes[1:]
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := survivors[0].CommittedSeqs()
		same := true
		for _, nd := range survivors[1:] {
			same = same && nd.CommittedSeqs() == w
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not converge: %d %d %d", w, survivors[1].CommittedSeqs(), survivors[2].CommittedSeqs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := range survivors {
		c.stop[i+1]() // the ledgers are read with no run loop left
	}
	ref := survivors[0].Replica()
	for i, nd := range survivors {
		rep := nd.Replica()
		if v := nd.Stats().View; v == 0 {
			t.Fatalf("survivor %d is still in view 0", i+1)
		}
		if rep.Committed() != ref.Committed() || rep.Ledger().HistRoot() != ref.Ledger().HistRoot() {
			t.Fatalf("survivor %d holds watermark %d root %s, survivor 1 %d %s", i+1,
				rep.Committed(), rep.Ledger().HistRoot(), ref.Committed(), ref.Ledger().HistRoot())
		}
	}
	// Every request commits once: the ledger holds one transaction entry
	// per request and a checkpoint entry per interval, and nothing more. A
	// request the new primary proposed again beside the view's re-proposed
	// batch that carried it would show here.
	nd := survivors[0]
	if txs := nd.CommittedEntries() - nd.CommittedSeqs()/checkpointEvery; txs != uint64(cfg.Workers*cfg.Requests) {
		t.Fatalf("%d transactions committed for %d requests", txs, cfg.Workers*cfg.Requests)
	}
}

// TestVerifyUnderTheNamedPrimary: a receipt's header names the view and the
// primary that proposed its batch, so the client checks exactly one key —
// no walk over the replica set, whichever view the receipt comes from — and
// a header naming a replica that does not lead its view, or signed by
// another replica than the one it names, is refused.
func TestVerifyUnderTheNamedPrimary(t *testing.T) {
	keys := make([]*hashsig.PrivateKey, 4)
	pubs := make([]*hashsig.PublicKey, 4)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("signer/%d", i))
		pubs[i] = keys[i].Public()
	}
	author := hashsig.Sum([]byte("signer/client"))
	reqNo := uint64(0)
	receiptFrom := func(signer int, view uint64, primary uint32) (*ledger.Request, *ledger.Receipt) {
		l, err := ledger.New(ledger.Config{Key: keys[signer], App: ledger.KVApp{}})
		if err != nil {
			t.Fatal(err)
		}
		reqNo++
		rq := ledger.Request{Author: author, ReqNo: reqNo, Body: ledger.EncodeOps([]ledger.Op{{Key: "k", Val: []byte("v")}})}
		b, err := l.ExecuteBatchAs(func(hashsig.Digest) ledger.Envelope {
			return ledger.Envelope{View: view, Primary: primary}
		}, []ledger.Request{rq})
		if err != nil {
			t.Fatal(err)
		}
		return &rq, &l.Receipts(b.Header.Seq)[0]
	}
	for _, view := range []uint64{0, 2, 2, 4, 7} {
		primary := int(view % 4)
		_, verifies := hashsig.Counts()
		rq, rc := receiptFrom(primary, view, uint32(primary))
		if err := VerifyReceipt(pubs, rq, rc); err != nil {
			t.Fatalf("honest receipt from view %d rejected: %v", view, err)
		}
		if _, v := hashsig.Counts(); v-verifies != 1 {
			t.Fatalf("view %d: receipt cost %d signature checks, want 1", view, v-verifies)
		}
	}
	for what, forge := range map[string]func() (*ledger.Request, *ledger.Receipt){
		"signed by another replica than the primary it names": func() (*ledger.Request, *ledger.Receipt) { return receiptFrom(2, 0, 0) },
		"naming a primary that does not lead its view":        func() (*ledger.Request, *ledger.Receipt) { return receiptFrom(2, 1, 2) },
		"naming a replica out of range":                       func() (*ledger.Request, *ledger.Receipt) { return receiptFrom(2, 1, 9) },
		"with the view altered after signing": func() (*ledger.Request, *ledger.Receipt) {
			rq, rc := receiptFrom(1, 1, 1)
			rc.Header.View = 5
			return rq, rc
		},
		// An honest signature over an entry the client never sent: requests
		// are unsigned, so only the body tells it from the client's own.
		"for another body under the same author and reqno": func() (*ledger.Request, *ledger.Receipt) {
			rq, rc := receiptFrom(1, 1, 1)
			other := *rq
			other.Body = ledger.EncodeOps([]ledger.Op{{Key: "k", Val: []byte("w")}})
			return &other, rc
		},
	} {
		if rq, rc := forge(); VerifyReceipt(pubs, rq, rc) == nil {
			t.Fatalf("receipt %s accepted", what)
		}
	}
}
