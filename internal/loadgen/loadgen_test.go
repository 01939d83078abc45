package loadgen

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
)

// bootCluster starts an in-process n-node cluster over real TCP
// transports and returns its RPC addresses and replica public keys.
func bootCluster(t *testing.T, n int, seed string) ([]string, []*hashsig.PublicKey) {
	t.Helper()
	keys := make([]*hashsig.PrivateKey, n)
	pubs := make([]*hashsig.PublicKey, n)
	for i := 0; i < n; i++ {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s/%d", seed, i))
		pubs[i] = keys[i].Public()
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
	rpcAddrs := make([]string, n)
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
		t.Cleanup(func() { tp.Close() })
		clk := node.NewWallClock(2 * time.Millisecond)
		t.Cleanup(clk.Stop)
		nd, err := node.New(node.Config{
			Consensus: consensus.Config{
				ID:              consensus.ReplicaID(i),
				Key:             keys[i],
				Peers:           pubs,
				App:             ledger.KVApp{},
				CheckpointEvery: 4,
			},
			Transport: tp,
			Clock:     clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		proxy.Set(nd.InboundHandler())
		nd.Start()
		t.Cleanup(nd.Stop)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.Serve(ln, nd.Submit)
		t.Cleanup(func() { srv.Close() })
		rpcAddrs[i] = srv.Addr().String()
	}
	return rpcAddrs, pubs
}

// TestClusterAcceptance is the CI acceptance gate: boot a 4-replica
// cluster, drive it with concurrent loadgen workers (which follow leader
// hints and verify every receipt client-side), and demand full commit.
// With LOADGEN_REPORT set, the throughput line is written there so CI can
// publish it as an artifact.
func TestClusterAcceptance(t *testing.T) {
	rpcAddrs, pubs := bootCluster(t, 4, "accept")
	cfg := Config{
		Addrs:    rpcAddrs,
		Pubs:     pubs,
		Workers:  4,
		Requests: 12,
		Timeout:  20 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Workers * cfg.Requests
	if res.Committed+res.Duplicates != want {
		t.Fatalf("committed %d + dup %d of %d requests (failed %d)",
			res.Committed, res.Duplicates, want, res.Failures)
	}
	if res.Failures != 0 {
		t.Fatalf("%d submissions failed", res.Failures)
	}
	t.Logf("acceptance: %s", res)
	if path := os.Getenv("LOADGEN_REPORT"); path != "" {
		if err := os.WriteFile(path, []byte(res.String()+"\n"), 0o644); err != nil {
			t.Fatalf("write report: %v", err)
		}
	}
}

// TestWorkerFollowsLeaderHint starts workers on backup nodes: the
// NotPrimary hint must redirect them to the leader with no failures.
func TestWorkerFollowsLeaderHint(t *testing.T) {
	rpcAddrs, pubs := bootCluster(t, 4, "hint")
	// Workers start at target = index % len(Addrs): workers 1 and 2 open
	// against backups and can only commit by following the leader hint.
	res, err := Run(Config{
		Addrs:    rpcAddrs,
		Pubs:     pubs,
		Workers:  3,
		Requests: 4,
		Seed:     "hint-load",
		Timeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 12 || res.Failures != 0 {
		t.Fatalf("unexpected result: %s", res)
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
		b, err := l.ExecuteBatchAs(ledger.Envelope{View: view, Primary: primary}, []ledger.Request{rq})
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
