// Command node runs one cluster replica: the consensus runtime behind a
// TCP replica transport plus a client submission RPC. A local 4-node
// cluster, with the repo's deterministic key derivation from a shared
// seed, looks like:
//
//	CLUSTER=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	for i in 0 1 2 3; do
//	  node -id $i -cluster $CLUSTER -rpc 127.0.0.1:800$i -seed demo &
//	done
//	loadgen -rpc 127.0.0.1:8000,127.0.0.1:8001,127.0.0.1:8002,127.0.0.1:8003 -seed demo
//
// With -debug addr a replica also serves net/http/pprof under
// /debug/pprof/ and its counters as JSON at /status (run-loop Stats,
// commit watermark, transport drops, signature counts) — for example
// `go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10`.
//
// Seed-derived keys exist so a demo cluster needs no key distribution
// step; real deployments would load per-replica private keys instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/rpc"
	"iaccf/internal/transport"
)

func main() {
	var (
		id         = flag.Int("id", -1, "this node's ID (index into -cluster)")
		cluster    = flag.String("cluster", "", "comma-separated replica transport addresses, ordered by node ID")
		rpcAddr    = flag.String("rpc", "", "client submission RPC listen address")
		seed       = flag.String("seed", "demo", "shared cluster key seed")
		checkpoint = flag.Uint64("checkpoint", 4, "checkpoint interval (sequences)")
		tick       = flag.Duration("tick", 5*time.Millisecond, "timer granularity (sync, retransmit, stall, submit patience); not on the commit path")
		debug      = flag.String("debug", "", "serve net/http/pprof and /status on this address (empty: off)")
	)
	flag.Parse()

	addrs := strings.Split(*cluster, ",")
	if *cluster == "" || len(addrs) < 2 {
		log.Fatal("node: -cluster must list at least two replica addresses")
	}
	if *id < 0 || *id >= len(addrs) {
		log.Fatalf("node: -id must be in [0,%d)", len(addrs))
	}

	keys := make([]*hashsig.PrivateKey, len(addrs))
	pubs := make([]*hashsig.PublicKey, len(addrs))
	addrMap := make(map[transport.NodeID]string, len(addrs))
	for i, a := range addrs {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("%s/%d", *seed, i))
		pubs[i] = keys[i].Public()
		addrMap[transport.NodeID(i)] = strings.TrimSpace(a)
	}

	proxy := &transport.HandlerProxy{}
	tp, err := transport.ListenTCP(transport.TCPConfig{
		Self:    transport.NodeID(*id),
		Addrs:   addrMap,
		Handler: proxy.Handle,
	})
	if err != nil {
		log.Fatalf("node: transport: %v", err)
	}
	defer tp.Close()

	clk := node.NewWallClock(*tick)
	defer clk.Stop()
	nd, err := node.New(node.Config{
		Consensus: consensus.Config{
			ID:              consensus.ReplicaID(*id),
			Key:             keys[*id],
			Peers:           pubs,
			App:             ledger.KVApp{},
			CheckpointEvery: *checkpoint,
		},
		Transport: tp,
		Clock:     clk,
	})
	if err != nil {
		log.Fatalf("node: %v", err)
	}
	proxy.Set(nd.InboundHandler())
	nd.Start()
	defer nd.Stop()

	if *rpcAddr != "" {
		ln, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			log.Fatalf("node: rpc: %v", err)
		}
		srv := rpc.Serve(ln, nd.Submit)
		defer srv.Close()
		log.Printf("node %d: transport %s, rpc %s", *id, tp.Addr(), srv.Addr())
	} else {
		log.Printf("node %d: transport %s (no rpc)", *id, tp.Addr())
	}

	if *debug != "" {
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatalf("node: debug: %v", err)
		}
		dbg := &http.Server{Handler: debugHandler(nd, tp.Dropped)}
		go dbg.Serve(ln)
		defer dbg.Close()
		log.Printf("node %d: debug %s", *id, ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("node %d: shutting down (committed %d seqs, %d entries)",
		*id, nd.CommittedSeqs(), nd.CommittedEntries())
}
