package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/hashsig"
	"iaccf/internal/ledger"
	"iaccf/internal/node"
	"iaccf/internal/transport"
	"iaccf/internal/txpool"
)

const (
	replicas = 4
	// tick is cmd/node's default -tick; the cluster under test runs the
	// cmd/node defaults throughout.
	tick = 5 * time.Millisecond
	// warmCommits is how many consecutive commits end warm-up.
	warmCommits = 20
	// warmPatience bounds one boot's warm-up before it is torn down and
	// re-booted (see the idle-arm hazard in README.md).
	warmPatience = 5 * time.Second
	maxBootTries = 4 // one boot plus at most three retries
)

// cluster is a 4-replica cluster inside this process, built only from the
// public constructors cmd/node uses. The primary of view 0 is node 0; all
// load goes to it.
type cluster struct {
	nodes  []*node.Node
	tcps   []*transport.TCP
	clocks []*node.WallClock
	rpcs   []*node.RPCServer
	pools  []*txpool.Pool
	pubs   []*hashsig.PublicKey

	// Set on traced boots only.
	taps []*transportTap
	app  *timedApp
}

// reserveAddrs picks free loopback ports by binding :0 and closing, the
// pattern the repo's own cluster tests use.
func reserveAddrs(n int) (map[transport.NodeID]string, error) {
	addrs := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[transport.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// bootCluster starts the replicas. With traced set, each node's transport
// and App are wrapped by the decorators in trace.go; the
// untraced cluster hands the node the bare TCP transport and ledger.KVApp.
func bootCluster(seed int64, traced bool) (_ *cluster, err error) {
	c := &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	keys := make([]*hashsig.PrivateKey, replicas)
	for i := range keys {
		keys[i] = hashsig.GenerateKeyFromSeed(fmt.Sprintf("bench-%d/%d", seed, i))
		c.pubs = append(c.pubs, keys[i].Public())
	}
	addrs, err := reserveAddrs(replicas)
	if err != nil {
		return nil, err
	}
	var app ledger.App = ledger.KVApp{}
	if traced {
		c.app = &timedApp{}
		app = c.app
	}
	proxies := make([]*transport.HandlerProxy, replicas)
	for i := 0; i < replicas; i++ {
		proxies[i] = &transport.HandlerProxy{}
		tp, err := transport.ListenTCP(transport.TCPConfig{
			Self:    transport.NodeID(i),
			Addrs:   addrs,
			Handler: proxies[i].Handle,
		})
		if err != nil {
			return nil, err
		}
		c.tcps = append(c.tcps, tp)
	}
	for i := 0; i < replicas; i++ {
		var tp transport.Transport = c.tcps[i]
		if traced {
			tap := &transportTap{next: tp, peers: replicas - 1}
			c.taps = append(c.taps, tap)
			tp = tap
		}
		clk := node.NewWallClock(tick)
		c.clocks = append(c.clocks, clk)
		pool := txpool.New(txpool.Config{})
		c.pools = append(c.pools, pool)
		nd, err := node.New(node.Config{
			Consensus: consensus.Config{
				ID:              consensus.ReplicaID(i),
				Key:             keys[i],
				Peers:           c.pubs,
				App:             app,
				CheckpointEvery: 4,
				Shards:          1,
			},
			Transport: tp,
			Clock:     clk,
			Pool:      pool,
		})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		proxies[i].Set(nd.InboundHandler())
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	for _, nd := range c.nodes {
		srv, err := node.ServeRPC(nd, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.rpcs = append(c.rpcs, srv)
	}
	return c, nil
}

// close stops everything the cluster started and waits for it.
func (c *cluster) close() {
	for _, s := range c.rpcs {
		s.Close()
	}
	for _, nd := range c.nodes {
		nd.Stop()
	}
	for _, tp := range c.tcps {
		tp.Close()
	}
	for _, clk := range c.clocks {
		clk.Stop()
	}
}

func (c *cluster) primary() *node.Node { return c.nodes[0] }

func (c *cluster) dropped() (n uint64) {
	for _, tp := range c.tcps {
		n += tp.Dropped()
	}
	return n
}

// warmup is the single closed-loop submitter that runs from the moment the
// nodes start until the measured load has taken over, so the cluster never
// sees a gap in work (README.md, idle-arm hazard).
type warmup struct {
	committed atomic.Int64 // requests committed so far
	streak    atomic.Int64 // consecutive commits
	stop      chan struct{}
	done      sync.WaitGroup
}

func startWarmup(c *cluster, seed int64) *warmup {
	w := &warmup{stop: make(chan struct{})}
	g := newRequestGen(seed, -1, false)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			rq := g.next()
			res := c.primary().Submit(rq)
			if res.Status == node.StatusCommitted && checkReceipt(&rq, res.Receipt, c.pubs) {
				w.committed.Add(1)
				w.streak.Add(1)
			} else {
				w.streak.Store(0)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return w
}

// finish stops the warm-up submitter and reports how many requests it
// committed in total.
func (w *warmup) finish() int64 {
	close(w.stop)
	w.done.Wait()
	return w.committed.Load()
}

// setupCluster boots a cluster and warms it up until warmCommits
// consecutive commits, re-booting a cluster whose warm-up stalls. It
// returns with the warm-up submitter still running.
func setupCluster(seed int64, traced bool) (c *cluster, w *warmup, retries int, err error) {
	for try := 0; try < maxBootTries; try++ {
		c, err = bootCluster(seed, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: boot %d failed, retrying: %v\n", try+1, err)
			retries++
			continue
		}
		w = startWarmup(c, seed)
		deadline := time.Now().Add(warmPatience)
		for w.streak.Load() < warmCommits && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if w.streak.Load() >= warmCommits {
			return c, w, retries, nil
		}
		w.finish()
		c.close()
		retries++
		err = fmt.Errorf("warm-up did not reach %d commits in %v", warmCommits, warmPatience)
		fmt.Fprintf(os.Stderr, "bench: boot %d failed, retrying: %v\n", try+1, err)
	}
	return nil, nil, retries, fmt.Errorf("cluster set-up failed after %d boots: %w", maxBootTries, err)
}

// converged waits up to patience for all replicas to report one committed
// watermark and entry count, and returns that entry count.
func (c *cluster) converged(patience time.Duration) (entries uint64, err error) {
	deadline := time.Now().Add(patience)
	for {
		same := true
		e0, s0 := c.nodes[0].CommittedEntries(), c.nodes[0].CommittedSeqs()
		for _, nd := range c.nodes[1:] {
			same = same && nd.CommittedEntries() == e0 && nd.CommittedSeqs() == s0
		}
		if same {
			// Equal counters while a commit is still in flight would be a
			// coincidence, not convergence: they must also hold still.
			time.Sleep(2 * tick)
			if c.nodes[0].CommittedEntries() == e0 {
				return e0, nil
			}
		}
		if time.Now().After(deadline) {
			var got []string
			for _, nd := range c.nodes {
				got = append(got, fmt.Sprintf("%d/%d", nd.CommittedSeqs(), nd.CommittedEntries()))
			}
			return 0, fmt.Errorf("replicas did not converge in %v: seqs/entries %v", patience, got)
		}
		time.Sleep(time.Millisecond)
	}
}
