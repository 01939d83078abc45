package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startCluster boots n TCP transports on loopback ports, each recording
// inbound frames, and returns the transports plus the per-node recorders.
// Ports are reserved up front by binding throwaway listeners, so every
// node starts with the complete address map.
func startCluster(t *testing.T, n int) ([]*TCP, []*recorder) {
	t.Helper()
	addrs := reserveAddrs(t, n)
	recs := make([]*recorder, n)
	tps := make([]*TCP, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		tp, err := ListenTCP(TCPConfig{
			Self:    NodeID(i),
			Addrs:   addrs,
			Handler: recs[i].record,
		})
		if err != nil {
			t.Fatal(err)
		}
		tps[i] = tp
		t.Cleanup(func() { tp.Close() })
	}
	return tps, recs
}

// reserveAddrs picks n free loopback ports by bind-and-release. A raced
// port between release and the real bind would fail the subsequent
// ListenTCP loudly, not corrupt the test.
func reserveAddrs(t *testing.T, n int) map[NodeID]string {
	t.Helper()
	addrs := make(map[NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

type recorder struct {
	mu     sync.Mutex
	frames [][]byte
	froms  []NodeID
}

func (r *recorder) record(from NodeID, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.froms = append(r.froms, from)
	r.frames = append(r.frames, append([]byte(nil), frame...))
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dialRawWith opens a raw socket and writes an arbitrary handshake.
func dialRawWith(addr string, magic, version, from uint32) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var hs [12]byte
	binary.BigEndian.PutUint32(hs[0:4], magic)
	binary.BigEndian.PutUint32(hs[4:8], version)
	binary.BigEndian.PutUint32(hs[8:12], from)
	if _, err := c.Write(hs[:]); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dialRaw opens a raw socket with a valid handshake claiming sender id.
func dialRaw(addr string, from uint32) (net.Conn, error) {
	return dialRawWith(addr, Magic, VCurrent, from)
}

func writeRawFrameHeader(c net.Conn, length uint32) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], length)
	_, err := c.Write(lenBuf[:])
	return err
}

func writeRawFrame(c net.Conn, body []byte) error {
	if err := writeRawFrameHeader(c, uint32(len(body))); err != nil {
		return err
	}
	_, err := c.Write(body)
	return err
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestTCPUnicastAndBroadcast boots a 3-node cluster and checks unicast
// reaches exactly the addressee, broadcast reaches everyone else, frames
// arrive intact and in per-sender order, and self-send is a no-op.
func TestTCPUnicastAndBroadcast(t *testing.T) {
	tps, recs := startCluster(t, 3)

	if err := tps[0].Send(1, []byte("uni-0-to-1")); err != nil {
		t.Fatal(err)
	}
	if err := tps[0].Send(0, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if err := tps[2].Broadcast([]byte("all-from-2")); err != nil {
		t.Fatal(err)
	}
	if err := tps[0].Broadcast([]byte("all-from-0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tps[1].Send(0, []byte(fmt.Sprintf("seq-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, "node1 frames", func() bool { return recs[1].count() >= 2 })
	waitFor(t, "node0 frames", func() bool { return recs[0].count() >= 21 })
	waitFor(t, "node2 frame", func() bool { return recs[2].count() >= 1 })

	recs[1].mu.Lock()
	var sawUni, sawBcast bool
	for i, f := range recs[1].frames {
		switch {
		case bytes.Equal(f, []byte("uni-0-to-1")):
			sawUni = true
			if recs[1].froms[i] != 0 {
				t.Errorf("unicast attributed to %d", recs[1].froms[i])
			}
		case bytes.Equal(f, []byte("all-from-2")):
			sawBcast = true
		}
	}
	recs[1].mu.Unlock()
	if !sawUni || !sawBcast {
		t.Fatalf("node1 missing frames: uni=%v bcast=%v", sawUni, sawBcast)
	}

	// Unicast to 1 must not reach 2; self-send must not come back.
	recs[2].mu.Lock()
	for _, f := range recs[2].frames {
		if bytes.Equal(f, []byte("uni-0-to-1")) {
			t.Error("unicast leaked to node2")
		}
	}
	recs[2].mu.Unlock()
	recs[0].mu.Lock()
	seq := 0
	for i, f := range recs[0].frames {
		if bytes.Equal(f, []byte("self")) {
			t.Error("self-send delivered")
		}
		if recs[0].froms[i] == 1 && bytes.HasPrefix(f, []byte("seq-")) {
			want := fmt.Sprintf("seq-%02d", seq)
			if string(f) != want {
				recs[0].mu.Unlock()
				t.Fatalf("per-sender order broken: got %q want %q", f, want)
			}
			seq++
		}
	}
	recs[0].mu.Unlock()
	if seq != 20 {
		t.Fatalf("got %d ordered frames from node1, want 20", seq)
	}
}

// TestTCPPeerComesUpLate sends into a dead peer address, then boots the
// peer and checks reconnect delivers subsequent frames.
func TestTCPPeerComesUpLate(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	recA := &recorder{}
	a, err := ListenTCP(TCPConfig{Self: 0, Addrs: addrs, Handler: recA.record})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// B is down: these are dropped or queued, never an error.
	for i := 0; i < 5; i++ {
		if err := a.Send(1, []byte("early")); err != nil {
			t.Fatal(err)
		}
	}

	recB := &recorder{}
	b, err := ListenTCP(TCPConfig{Self: 1, Addrs: addrs, Handler: recB.record})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Keep sending until the reconnect lands one.
	waitFor(t, "late peer delivery", func() bool {
		a.Send(1, []byte("late"))
		return recB.count() > 0
	})
}

// TestTCPOversizedFrameHangsUp: a peer announcing a frame over MaxFrameLen
// gets disconnected before any allocation, and the transport survives.
func TestTCPOversizedFrameHangsUp(t *testing.T) {
	tps, recs := startCluster(t, 2)
	c, err := dialRaw(tps[1].Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeRawFrameHeader(c, MaxFrameLen+1); err != nil {
		t.Fatal(err)
	}
	// The reader must hang up without delivering anything.
	waitFor(t, "hangup", func() bool {
		one := []byte{0}
		c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		_, err := c.Read(one)
		return err != nil && !isTimeout(err)
	})
	if recs[1].count() != 0 {
		t.Fatal("oversized frame delivered")
	}
	// The transport still works for honest peers.
	tps[0].Send(1, []byte("still-alive"))
	waitFor(t, "post-attack delivery", func() bool { return recs[1].count() >= 1 })
}

// TestTCPBadHandshakeRejected: wrong magic, wrong version, unknown sender,
// or a peer claiming the receiver's own ID delivers nothing.
func TestTCPBadHandshakeRejected(t *testing.T) {
	tps, recs := startCluster(t, 2)
	_ = tps
	for _, tc := range []struct {
		name    string
		magic   uint32
		version uint32
		from    uint32
	}{
		{"bad magic", 0xdeadbeef, VCurrent, 0},
		{"bad version", Magic, VCurrent + 1, 0},
		{"unknown sender", Magic, VCurrent, 99},
		{"self-claiming sender", Magic, VCurrent, 1},
	} {
		c, err := dialRawWith(tps[1].Addr().String(), tc.magic, tc.version, tc.from)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		writeRawFrame(c, []byte("evil"))
		c.Close()
	}
	time.Sleep(200 * time.Millisecond)
	if recs[1].count() != 0 {
		t.Fatal("frame delivered over a rejected handshake")
	}
}

// TestLoopbackDeterminism: two hubs with the same seed, policy, and send
// sequence deliver identical frame sequences; a different seed diverges
// (sanity that the schedule is actually random).
func TestLoopbackDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		hub := NewHub(seed, TamperPolicy{DropRate: 0.2, ReorderWindow: 4})
		var gotMu sync.Mutex
		var got []string
		eps := make([]Transport, 3)
		for i := 0; i < 3; i++ {
			id := NodeID(i)
			eps[i] = hub.Endpoint(id, func(from NodeID, frame []byte) {
				gotMu.Lock()
				got = append(got, fmt.Sprintf("%d<-%d:%s", id, from, frame))
				gotMu.Unlock()
			})
		}
		for i := 0; i < 10; i++ {
			eps[i%3].Broadcast([]byte(fmt.Sprintf("b%d", i)))
			eps[(i+1)%3].Send(NodeID(i%3), []byte(fmt.Sprintf("u%d", i)))
		}
		for hub.Step() {
		}
		return got
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules; rng not wired")
	}
}

// TestLoopbackCut: a Hold verdict keeps a frame aside until its link passes
// again, then delivers it in the order it was held; a Lose verdict discards
// it.
func TestLoopbackCut(t *testing.T) {
	verdict := Hold
	hub := NewHub(1, TamperPolicy{Cut: func(from, to NodeID) Cut {
		if to == 2 {
			return verdict
		}
		return Pass
	}})
	var got []string
	eps := make([]Transport, 3)
	for i := range eps {
		id := NodeID(i)
		eps[i] = hub.Endpoint(id, func(from NodeID, frame []byte) {
			got = append(got, fmt.Sprintf("%d<-%d:%s", id, from, frame))
		})
	}
	eps[0].Broadcast([]byte("a"))
	eps[1].Send(2, []byte("b"))
	for hub.Step() {
	}
	if want := "[1<-0:a]"; fmt.Sprint(got) != want {
		t.Fatalf("under Hold: delivered %v, want %s", got, want)
	}
	verdict = Pass
	for hub.Step() {
	}
	if want := "[1<-0:a 2<-0:a 2<-1:b]"; fmt.Sprint(got) != want {
		t.Fatalf("after the cut lifted: delivered %v, want %s", got, want)
	}
	verdict = Lose
	eps[0].Send(2, []byte("c"))
	for hub.Step() {
	}
	if len(got) != 3 {
		t.Fatalf("under Lose: delivered %v, want nothing more", got)
	}
}

// TestLoopbackHeldLinks: held frames are kept per link, and each Step asks
// each link holding frames for its verdict once, however many frames it
// holds. The frames of links that pass again rejoin the queue in the order
// they were held, across links; a link that loses its frames gets one Lose
// verdict per frame, so a partition can count every frame it discards.
func TestLoopbackHeldLinks(t *testing.T) {
	verdict := Hold
	calls, loses := 0, 0
	hub := NewHub(1, TamperPolicy{Cut: func(from, to NodeID) Cut {
		calls++
		if to != 2 {
			return Pass
		}
		if verdict == Lose {
			loses++
		}
		return verdict
	}})
	var got []string
	eps := make([]Transport, 3)
	for i := range eps {
		eps[i] = hub.Endpoint(NodeID(i), func(from NodeID, frame []byte) { got = append(got, string(frame)) })
	}
	const n = 50
	var want []string
	for i := 0; i < n; i++ {
		eps[0].Send(2, []byte(fmt.Sprint("a", i)))
		eps[1].Send(2, []byte(fmt.Sprint("b", i)))
		want = append(want, fmt.Sprint("a", i), fmt.Sprint("b", i))
	}
	for hub.Step() {
	}
	calls = 0
	for i := 0; i < 10; i++ {
		eps[0].Send(1, []byte("x"))
		hub.Step()
	}
	// Per step: one probe for each of the two held links, one verdict for
	// the frame picked.
	if calls != 10*3 {
		t.Fatalf("10 steps beside %d held frames on two links asked for %d verdicts, want 30", 2*n, calls)
	}
	got = got[:0]
	verdict = Pass
	for hub.Step() {
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("released frames arrived as %v, want the order they were held, %v", got, want)
	}

	verdict = Hold
	for i := 0; i < 5; i++ {
		eps[0].Send(2, []byte("c"))
		eps[1].Send(2, []byte("d"))
	}
	for hub.Step() {
	}
	got, verdict, loses = got[:0], Lose, 0
	for hub.Step() {
	}
	if len(got) != 0 || loses != 10 {
		t.Fatalf("a losing cut delivered %v and gave %d Lose verdicts for 10 held frames", got, loses)
	}
}
