// Package transport moves opaque encoded frames between cluster nodes. It
// is the first real-network layer in the repo: everything above it —
// consensus, the node runtime, the transaction pool — stays byte-oriented
// and deterministic, while this package owns sockets, reconnection, and
// wall-clock deadlines. The Hub is its one deterministic part: a seeded
// schedule the sim replays frame for frame.
//
// # Wire protocol
//
// A connection opens with a fixed 12-byte handshake, then carries frames:
//
//	handshake: magic (4, big-endian, transport.Magic)
//	           version (4, big-endian, transport.VCurrent)
//	           sender node id (4, big-endian)
//	frame:     length (4, big-endian) | body (length bytes)
//
// Frame bodies are opaque to the transport; the node layer encodes
// consensus messages with internal/wire, whose ReadFrame/WriteFrame are
// the length-prefix codec here and in the client RPC. Bodies are
// capped at MaxFrameLen — large enough for a full sync chunk plus
// envelope overhead, small enough that a hostile peer cannot make the
// reader allocate unboundedly. A handshake with the wrong magic or an
// unknown version closes the connection; version negotiation is a
// same-version check, matching the batch stream codec's policy.
//
// Connections are unidirectional by convention: each node dials one
// outbound connection per peer for sending and accepts inbound
// connections for receiving, so peers never race to dedup a shared
// socket pair.
package transport

import (
	"errors"
	"sync/atomic"
)

// NodeID names a cluster node on the wire. It matches the width of
// ledger.ReplicaID so node layers can convert without truncation.
type NodeID uint32

const (
	// Magic opens every transport connection ("iacT").
	Magic = 0x69616354
	// VCurrent is the only protocol version current nodes speak. Version 2
	// pushed catch-up transfers (consensus tags 7 and 8 retired, SyncChunk
	// carries its offer). Version 3 dropped the shard partition: every
	// batch header loses its shard count and SyncChunk its shard digest
	// vector, so every pre-prepare and sync frame changes shape. Version 4
	// added consensus.Forward, a frame an older node cannot decode. A peer
	// of another version is refused at the handshake rather than at its
	// first frame.
	VCurrent = 4
	// MaxFrameLen bounds frame bodies: a maximal sync chunk
	// (wire.MaxChunkLen) plus 64 KiB of slack for the envelope and the offer
	// every SyncChunk carries. At the longest frontier a decoder accepts,
	// the offer's certificate — a prepare from every backup and an opening
	// from every replica, ≈ 376 bytes per replica — fits for clusters of up
	// to 165 replicas; consensus.TestSyncChunkFitsOneFrame holds 4 and 165.
	MaxFrameLen = 1<<26 + 1<<16
)

// ErrClosed reports use of a transport after Close.
var ErrClosed = errors.New("transport: closed")

// Handler consumes one inbound frame. The frame buffer is owned by the
// transport and reused after the call returns; handlers that retain bytes
// must copy. Handlers for a given peer are invoked sequentially in arrival
// order; different peers may be concurrent.
type Handler func(from NodeID, frame []byte)

// Transport delivers frames to cluster peers. Send and Broadcast are
// asynchronous and non-blocking: delivery is best-effort over bounded
// per-peer queues, and a full queue or dead peer drops the frame. That is
// the contract consensus is built for — every protocol message is either
// retransmitted (Retransmit, sync backoff) or safe to lose.
type Transport interface {
	// Send queues a frame for one peer. Sending to the local node is a
	// no-op (the consensus layer already self-delivers).
	Send(to NodeID, frame []byte) error
	// Broadcast queues a frame for every peer except the local node.
	Broadcast(frame []byte) error
	// Close releases sockets and stops delivery. Idempotent.
	Close() error
}

// HandlerProxy breaks the construction cycle between a transport (which
// needs its Handler at listen time) and the consumer built on top of the
// transport (which needs the transport first). Pass proxy.Handle as the
// transport's Handler, then Set the real handler once the consumer
// exists. Frames arriving before Set are dropped — the same best-effort
// contract as a peer that is not up yet.
type HandlerProxy struct {
	h atomic.Value // Handler
}

// Set installs the real handler. Safe to call concurrently with Handle.
func (p *HandlerProxy) Set(h Handler) { p.h.Store(h) }

// Handle forwards to the installed handler, if any.
func (p *HandlerProxy) Handle(from NodeID, frame []byte) {
	if h, ok := p.h.Load().(Handler); ok && h != nil {
		h(from, frame)
	}
}
