package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig parameterizes a TCP transport.
type TCPConfig struct {
	// Self is this node's ID. Required to appear in Addrs.
	Self NodeID
	// Addrs maps every cluster node (including Self) to its host:port.
	// Self's entry is the listen address.
	Addrs map[NodeID]string
	// Handler receives inbound frames. Required.
	Handler Handler
	// QueueLen bounds each peer's outbound queue. 0 means 1024.
	QueueLen int
	// DialBackoff is the initial reconnect delay, doubling to 32x.
	// 0 means 50ms.
	DialBackoff time.Duration
	// WriteTimeout bounds one frame write. 0 means 10s.
	WriteTimeout time.Duration
}

// TCP is the production transport: one dialed connection per peer for
// sending (reconnecting with exponential backoff), one accepted connection
// per peer for receiving. See the package doc for the wire protocol.
type TCP struct {
	cfg     TCPConfig
	ln      net.Listener
	peers   map[NodeID]*tcpPeer
	dropped atomic.Uint64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // accepted connections, for Close
	wg     sync.WaitGroup
}

// tcpPeer is one outbound lane: a bounded queue drained by a writer
// goroutine that owns the dial/reconnect loop.
type tcpPeer struct {
	id    NodeID
	addr  string
	queue chan []byte
	done  chan struct{}
}

// ListenTCP starts a TCP transport: binds Self's listen address and spawns
// one sender per peer. Peers may come up in any order — senders retry
// until their peer is listening.
func ListenTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	if _, ok := cfg.Addrs[cfg.Self]; !ok {
		return nil, fmt.Errorf("transport: self %d missing from address map", cfg.Self)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Self], err)
	}
	t := &TCP{
		cfg:   cfg,
		ln:    ln,
		peers: make(map[NodeID]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
	}
	for id, addr := range cfg.Addrs {
		if id == cfg.Self {
			continue
		}
		p := &tcpPeer{id: id, addr: addr, queue: make(chan []byte, cfg.QueueLen), done: make(chan struct{})}
		t.peers[id] = p
		t.wg.Add(1)
		go t.sendLoop(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" configs).
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Dropped reports frames discarded because a peer's queue was full or its
// connection was down mid-write.
func (t *TCP) Dropped() uint64 { return t.dropped.Load() }

// Send queues a frame for one peer. The transport takes ownership of the
// slice; the caller must not modify it afterwards. To the local node it is
// a no-op.
func (t *TCP) Send(to NodeID, frame []byte) error {
	if to == t.cfg.Self {
		return nil
	}
	p, ok := t.peers[to]
	if !ok {
		return fmt.Errorf("transport: unknown peer %d", to)
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	select {
	case p.queue <- frame:
	default:
		t.dropped.Add(1)
	}
	return nil
}

// Broadcast queues a frame for every peer. All lanes share the one backing
// array (writers only read it), so the caller must not modify it.
func (t *TCP) Broadcast(frame []byte) error {
	var err error
	for id := range t.peers {
		if e := t.Send(id, frame); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Close shuts the listener, all connections, and all sender loops.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, p := range t.peers {
		close(p.done)
	}
	t.wg.Wait()
	return nil
}

// track registers an accepted or dialed connection for Close; it reports
// false (and closes the conn) when the transport is already shutting down.
func (t *TCP) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *TCP) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	c.Close()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(c) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

// readLoop validates the handshake then delivers frames until the
// connection dies or the peer breaks the protocol. The frame buffer is
// reused across frames, matching the Handler ownership contract.
func (t *TCP) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer t.untrack(c)
	br := bufio.NewReaderSize(c, 1<<16)
	from, err := readHandshake(br)
	if err != nil {
		return
	}
	if _, known := t.peers[from]; !known {
		return // unknown or self-claiming sender
	}
	var frame []byte
	for {
		if frame, err = readFrame(br, frame); err != nil {
			return
		}
		t.cfg.Handler(from, frame)
	}
}

var (
	errBadHandshake  = errors.New("transport: bad handshake magic or version")
	errFrameTooLarge = errors.New("transport: frame exceeds MaxFrameLen")
)

// writeHandshake writes the connection preamble naming from as the sender.
func writeHandshake(w *bufio.Writer, from NodeID) error {
	var hs [12]byte
	binary.BigEndian.PutUint32(hs[0:4], Magic)
	binary.BigEndian.PutUint32(hs[4:8], VCurrent)
	binary.BigEndian.PutUint32(hs[8:12], uint32(from))
	_, err := w.Write(hs[:])
	return err
}

// readHandshake reads the connection preamble and returns the sender it
// names. A wrong magic or version is errBadHandshake; whether the sender is
// a cluster peer is the caller's check.
func readHandshake(br *bufio.Reader) (NodeID, error) {
	var hs [12]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(hs[0:4]) != Magic ||
		binary.BigEndian.Uint32(hs[4:8]) != VCurrent {
		return 0, errBadHandshake
	}
	return NodeID(binary.BigEndian.Uint32(hs[8:12])), nil
}

// readFrame reads one length-prefixed frame body into buf, growing it only
// when it is too small, and returns the body. The announced length is
// checked against MaxFrameLen before anything is allocated, so a hostile
// peer costs at most one MaxFrameLen buffer per connection.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	prefix, err := br.Peek(4)
	if len(prefix) < 4 {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	br.Discard(4)
	if n > MaxFrameLen {
		return nil, errFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the length prefix promised a body
		}
		return nil, err
	}
	return buf, nil
}

// sendLoop owns one peer's outbound connection: dial with backoff, write
// the handshake, then drain the queue. A write error drops the in-flight
// frame and redials — consensus retransmission covers the loss.
func (t *TCP) sendLoop(p *tcpPeer) {
	defer t.wg.Done()
	backoff := t.cfg.DialBackoff
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			t.untrack(conn)
		}
	}()
	for {
		var frame []byte
		select {
		case <-p.done:
			return
		case frame = <-p.queue:
		}
		for {
			if conn == nil {
				c, err := net.DialTimeout("tcp", p.addr, backoff)
				if err != nil {
					select {
					case <-p.done:
						return
					case <-time.After(backoff):
					}
					if backoff < t.cfg.DialBackoff*32 {
						backoff *= 2
					}
					continue
				}
				if !t.track(c) {
					return
				}
				w := bufio.NewWriterSize(c, 1<<16)
				if err := writeHandshake(w, t.cfg.Self); err != nil {
					t.untrack(c)
					continue
				}
				conn, bw = c, w
				backoff = t.cfg.DialBackoff
			}
			conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
			if err := writeFrame(bw, frame); err == nil {
				// Flush opportunistically: batch while the queue has more.
				if len(p.queue) == 0 {
					if err := bw.Flush(); err != nil {
						t.dropped.Add(1)
						t.untrack(conn)
						conn, bw = nil, nil
					}
				}
				break
			}
			// Write failed: the frame is lost, reconnect for the next one.
			t.dropped.Add(1)
			t.untrack(conn)
			conn, bw = nil, nil
			break
		}
	}
}

// writeFrame writes one frame: its length, then its body.
func writeFrame(w *bufio.Writer, frame []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}
