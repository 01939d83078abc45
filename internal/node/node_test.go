package node

import (
	"fmt"
	"net"
	"testing"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
)

// clusterKeys derives the n replica keypairs every test component (nodes,
// clients) can reproduce from the shared seed.
func clusterKeys(seed string, n int) ([]*hashsig.PrivateKey, []*hashsig.PublicKey) {
	keys := make([]*hashsig.PrivateKey, n)
	pubs := make([]*hashsig.PublicKey, n)
	for i := 0; i < n; i++ {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s/%d", seed, i))
		pubs[i] = keys[i].Public()
	}
	return keys, pubs
}

func reserveAddrs(t *testing.T, n int) map[transport.NodeID]string {
	t.Helper()
	addrs := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// startTCPCluster boots n nodes over real TCP transports with wall
// clocks, plus one RPC server per node. Returns the nodes and the RPC
// addresses.
func startTCPCluster(t *testing.T, n int, seed string) ([]*Node, []string) {
	t.Helper()
	keys, pubs := clusterKeys(seed, n)
	addrs := reserveAddrs(t, n)
	nodes := make([]*Node, n)
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
		clk := NewWallClock(2 * time.Millisecond)
		t.Cleanup(clk.Stop)
		nd, err := New(Config{
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
		nodes[i] = nd
		rpcAddrs[i] = srv.Addr().String()
	}
	return nodes, rpcAddrs
}

// TestClusterEndToEnd boots a real 4-node TCP cluster, submits requests
// over the RPC, and verifies client-side that every receipt proves its
// request committed — the ISSUE's acceptance path in miniature.
func TestClusterEndToEnd(t *testing.T) {
	nodes, rpcAddrs := startTCPCluster(t, 4, "e2e")
	_, pubs := clusterKeys("e2e", 4)

	cl, err := rpc.Dial(rpcAddrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	author := hashsig.Sum([]byte("e2e-client"))
	const total = 24
	for i := 1; i <= total; i++ {
		rq := ledger.Request{
			Author: author,
			ReqNo:  uint64(i),
			Body:   ledger.EncodeOps([]ledger.Op{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}),
		}
		res, err := cl.Submit(&rq, 15*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Status != rpc.StatusCommitted {
			t.Fatalf("request %d: status %v", i, res.Status)
		}
		if res.Receipt == nil {
			t.Fatalf("request %d: committed without receipt", i)
		}
		// Client-side receipt verification: the audit path must root in
		// the signed header, under the signing replica's public key.
		verified := false
		for _, pub := range pubs {
			if res.Receipt.Verify(pub) {
				verified = true
				break
			}
		}
		if !verified {
			t.Fatalf("request %d: receipt does not verify against any replica key", i)
		}
		if res.Receipt.Entry.ReqNo != uint64(i) {
			t.Fatalf("request %d: receipt is for ReqNo %d", i, res.Receipt.Entry.ReqNo)
		}
	}

	// Every node converges to the same committed watermark.
	deadline := time.Now().Add(10 * time.Second)
	for {
		min := nodes[0].CommittedSeqs()
		for _, nd := range nodes[1:] {
			if c := nd.CommittedSeqs(); c < min {
				min = c
			}
		}
		if min >= nodes[0].CommittedSeqs() && min > 0 && allEqual(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %d %d %d %d",
				nodes[0].CommittedSeqs(), nodes[1].CommittedSeqs(),
				nodes[2].CommittedSeqs(), nodes[3].CommittedSeqs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nodes[0].CommittedEntries() == 0 {
		t.Fatal("no committed entries counted")
	}
}

func allEqual(nodes []*Node) bool {
	c := nodes[0].CommittedSeqs()
	for _, nd := range nodes[1:] {
		if nd.CommittedSeqs() != c {
			return false
		}
	}
	return true
}

// TestSubmitStatuses exercises the fast-fail verdicts: NotPrimary with a
// usable leader hint, TooLarge for an over-cap body, and Duplicate for a
// committed retry.
func TestSubmitStatuses(t *testing.T) {
	_, rpcAddrs := startTCPCluster(t, 4, "statuses")
	author := hashsig.Sum([]byte("status-client"))

	// A backup must refuse with the leader's identity.
	backup, err := rpc.Dial(rpcAddrs[1], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	rq := ledger.Request{Author: author, ReqNo: 1,
		Body: ledger.EncodeOps([]ledger.Op{{Key: "a", Val: []byte("v")}})}
	res, err := backup.Submit(&rq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != rpc.StatusNotPrimary || res.Leader != 0 {
		t.Fatalf("backup answered %v leader %d, want not-primary leader 0", res.Status, res.Leader)
	}

	// The leader commits it; an exact retry is a duplicate.
	leader, err := rpc.Dial(rpcAddrs[res.Leader], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	res, err = leader.Submit(&rq, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != rpc.StatusCommitted {
		t.Fatalf("leader answered %v", res.Status)
	}
	res, err = leader.Submit(&rq, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != rpc.StatusDuplicate {
		t.Fatalf("retry of committed request answered %v, want duplicate", res.Status)
	}

	// An over-cap body dies at the frame boundary.
	big := ledger.Request{Author: author, ReqNo: 2, Body: make([]byte, ledger.MaxRequestLen+1)}
	res, err = leader.Submit(&big, 5*time.Second)
	if err == nil && res.Status != rpc.StatusTooLarge {
		t.Fatalf("oversized body answered %v", res.Status)
	}
}

// TestRouteCountsSendErrors: a frame the transport refuses is counted, not
// dropped silently. The transport here is a real TCP one, closed before
// anything is routed through it, so every Send and Broadcast fails.
func TestRouteCountsSendErrors(t *testing.T) {
	keys, pubs := clusterKeys("send-errors", 4)
	tp, err := transport.ListenTCP(transport.TCPConfig{Self: 0, Addrs: reserveAddrs(t, 4), Handler: func(transport.NodeID, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	tp.Close()
	nd, err := New(Config{
		Consensus: consensus.Config{Key: keys[0], Peers: pubs, App: ledger.KVApp{}, CheckpointEvery: 4},
		Transport: tp,
		Clock:     NewManualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := &consensus.Commit{Seq: 1}
	nd.route([]consensus.Outbound{{Dest: consensus.Broadcast, Msg: msg}, {Dest: 2, Msg: msg}})
	if got := nd.Stats().SendErrors; got != 2 {
		t.Fatalf("SendErrors = %d after a refused broadcast and a refused send, want 2", got)
	}
}
