// Package rpc is the client submission protocol, both ends: Serve answers
// connections with what its submit function decides, Dial/Client.Submit
// send requests and read the verdicts. It links no replica code.
//
// A connection opens with its own hello (clients are not cluster members
// and never enter the replica handshake), then carries request/response
// exchanges in wire frames:
//
//	hello:    magic (4, big-endian, Magic) | version (4, big-endian, Version)
//	request:  length (4) | ledger.EncodeRequest body
//	response: length (4) | status (1) | payload
//
// A committed response's payload is the encoded receipt (or nothing), a
// not-primary one's the leader's replica index (4, big-endian); every other
// status carries nothing. Request frames are capped just above
// ledger.MaxRequestLen, so an oversized body is refused before it is read;
// response frames at a status byte plus ledger.MaxReceiptLen, since a
// receipt carries its request's whole body.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"iaccf/internal/ledger"
	"iaccf/internal/wire"
)

const (
	// Magic opens every client RPC connection ("iacC").
	Magic = 0x69616343
	// Version is the only protocol version current clients and servers
	// speak. Version 2 carries the receipt without the shard partition: no
	// shard count in its header, no shard index or shard size beside its
	// leaf index, and a path of at most 64 digests.
	Version = 2
	// maxRequestFrame bounds request frames: the request body cap plus the
	// request envelope (flag, author, reqno, length prefixes).
	maxRequestFrame = ledger.MaxRequestLen + 128
	// maxResponseFrame bounds response frames: the status byte and the
	// longest receipt, which embeds a MaxRequestLen body.
	maxResponseFrame = 1 + ledger.MaxReceiptLen
)

// Status is the submission verdict.
type Status uint8

const (
	// StatusCommitted: the request executed and committed; the result
	// carries its receipt.
	StatusCommitted Status = 1
	// StatusNotPrimary: this node is a backup; the result names the
	// current leader for the client to resubmit to.
	StatusNotPrimary Status = 2
	// StatusBusy: the transaction pool is full — backpressure, retry
	// with backoff.
	StatusBusy Status = 3
	// StatusTooLarge: the request body exceeds ledger.MaxRequestLen.
	StatusTooLarge Status = 4
	// StatusDuplicate: the exact request was already committed or is no
	// longer pending; the client has (or had) its receipt.
	StatusDuplicate Status = 5
	// StatusTimeout: the request did not commit within the node's
	// patience; the client should retry (possibly against a new leader).
	StatusTimeout Status = 6
	// StatusShutdown: the node stopped before the request resolved.
	StatusShutdown Status = 7
)

var statusNames = [...]string{"", "committed", "not-primary", "busy", "too-large", "duplicate", "timeout", "shutdown"}

func (s Status) String() string {
	if s == 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("status(%d)", uint8(s))
	}
	return statusNames[s]
}

// Result is one submission's outcome.
type Result struct {
	Status  Status
	Leader  uint32          // replica index, set for StatusNotPrimary
	Receipt *ledger.Receipt // set for StatusCommitted
}

// encodeResult appends a response frame's body to dst.
func encodeResult(dst []byte, res Result) []byte {
	dst = append(dst, byte(res.Status))
	switch res.Status {
	case StatusCommitted:
		if res.Receipt != nil {
			dst = ledger.EncodeReceipt(dst, res.Receipt)
		}
	case StatusNotPrimary:
		dst = binary.BigEndian.AppendUint32(dst, res.Leader)
	}
	return dst
}

// decodeResult parses a response frame's body. It accepts exactly what
// encodeResult writes: a known status, a NotPrimary hint of exactly four
// bytes, no payload after any other status but a receipt after Committed.
// The result shares no memory with b.
func decodeResult(b []byte) (Result, error) {
	if len(b) == 0 || b[0] == 0 || int(b[0]) >= len(statusNames) {
		return Result{}, errors.New("rpc: response without a known status")
	}
	res, payload := Result{Status: Status(b[0])}, b[1:]
	switch {
	case res.Status == StatusCommitted && len(payload) > 0:
		rc, err := ledger.DecodeReceipt(payload)
		if err != nil {
			return Result{}, fmt.Errorf("rpc: bad receipt in response: %w", err)
		}
		res.Receipt = rc
	case res.Status == StatusNotPrimary && len(payload) == 4:
		res.Leader = binary.BigEndian.Uint32(payload)
	case res.Status == StatusNotPrimary || len(payload) > 0:
		return Result{}, fmt.Errorf("rpc: %d-byte payload in a %v response", len(payload), res.Status)
	}
	return res, nil
}

// Server serves the submission RPC on one listener.
type Server struct {
	ln     net.Listener
	submit func(ledger.Request) Result

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve answers submission RPC connections on ln until Close, handing each
// decoded request to submit and framing its result back.
func Serve(ln net.Listener, submit func(ledger.Request) Result) *Server {
	s := &Server{ln: ln, submit: submit, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound RPC address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and all client connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn checks the hello, then answers frames until the connection
// ends. One request buffer and one response buffer serve the whole
// connection: ledger.DecodeRequest copies what the request keeps.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 1<<16)
	var hello [8]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || binary.BigEndian.Uint64(hello[:]) != Magic<<32|Version {
		return
	}
	bw := bufio.NewWriterSize(c, 1<<16)
	var req, resp []byte
	for {
		var err error
		req, err = wire.ReadFrame(br, req, maxRequestFrame)
		tooLarge := errors.Is(err, wire.ErrFrameTooLarge)
		if err != nil && !tooLarge {
			return
		}
		// An over-cap frame (its body never read) and a malformed body are
		// both answered StatusTooLarge.
		res := Result{Status: StatusTooLarge}
		if rq, err := ledger.DecodeRequest(req); err == nil {
			res = s.submit(rq)
		}
		resp = encodeResult(resp[:0], res)
		if wire.WriteFrame(bw, resp) != nil || bw.Flush() != nil || tooLarge {
			return // the unread body of an over-cap frame leaves nothing to parse
		}
	}
}

// Client is a client-side connection to one node's submission RPC.
type Client struct {
	mu  sync.Mutex
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte // the request, then the response; decodeResult copies out
}

// Dial connects to a node's submission RPC.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write(binary.BigEndian.AppendUint64(nil, Magic<<32|Version)); err != nil {
		c.Close()
		return nil, err
	}
	return &Client{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}, nil
}

// Close shuts the connection.
func (cl *Client) Close() error { return cl.c.Close() }

// Submit sends one request and blocks for its verdict. One in-flight
// exchange per client; use several clients for pipelining. A zero
// timeout means no deadline.
func (cl *Client) Submit(rq *ledger.Request, timeout time.Duration) (Result, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if timeout > 0 {
		cl.c.SetDeadline(time.Now().Add(timeout))
	} else {
		cl.c.SetDeadline(time.Time{})
	}
	cl.buf = ledger.EncodeRequest(cl.buf[:0], rq)
	if err := wire.WriteFrame(cl.bw, cl.buf); err != nil {
		return Result{}, err
	}
	if err := cl.bw.Flush(); err != nil {
		return Result{}, err
	}
	var err error
	if cl.buf, err = wire.ReadFrame(cl.br, cl.buf, maxResponseFrame); err != nil {
		return Result{}, err
	}
	return decodeResult(cl.buf)
}
