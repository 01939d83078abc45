package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"iaccf/internal/consensus"
	"iaccf/internal/kv"
	"iaccf/internal/ledger"
	"iaccf/internal/transport"
)

// Tracing is done from outside the program under test: the decorators below
// wrap the public seams a node is built from (its Transport, its App). They
// exist only in a traced run.

// transportTap counts and times what one node hands to its transport.
type transportTap struct {
	next  transport.Transport
	peers int // fan-out of one Broadcast

	calls     atomic.Int64 // Send + Broadcast calls
	callNanos atomic.Int64
	frames    atomic.Int64 // frames queued (a broadcast counts once per peer)
	bytes     atomic.Int64 // frame bodies plus the 4-byte length prefix
	newViews  atomic.Int64
}

func (t *transportTap) record(frame []byte, fanout int, start time.Time) {
	t.callNanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.frames.Add(int64(fanout))
	t.bytes.Add(int64(fanout * (len(frame) + 4)))
	// The first byte of a consensus frame is its message type tag.
	if len(frame) > 0 && consensus.MsgType(frame[0]) == consensus.MsgNewView {
		t.newViews.Add(1)
	}
}

func (t *transportTap) Send(to transport.NodeID, frame []byte) error {
	start := time.Now()
	err := t.next.Send(to, frame)
	t.record(frame, 1, start)
	return err
}

func (t *transportTap) Broadcast(frame []byte) error {
	start := time.Now()
	err := t.next.Broadcast(frame)
	t.record(frame, t.peers, start)
	return err
}

func (t *transportTap) Close() error { return t.next.Close() }

// timedApp times every Execute the ledger makes into the application. It
// embeds KVApp so the Footprint method the parallel executor looks for is
// still there.
type timedApp struct {
	ledger.KVApp
	calls atomic.Int64
	nanos atomic.Int64
}

func (a *timedApp) Execute(tx *kv.Tx, request []byte) error {
	start := time.Now()
	err := a.KVApp.Execute(tx, request)
	a.nanos.Add(int64(time.Since(start)))
	a.calls.Add(1)
	return err
}

func (a *timedApp) meanMicros() float64 {
	if n := a.calls.Load(); n > 0 {
		return float64(a.nanos.Load()) / float64(n) / 1e3
	}
	return 0
}

// span is one traced interval. Spans of one request share its id; parent
// names the span that caused this one.
type span struct {
	ID      uint64  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// requestSpans expands a request's timeline into its three client spans.
// rpc.submit is the call into the system (Node.Submit or the RPC round
// trip); a failed request has no client.verify end, so it gets none.
func requestSpans(r reqRecord) []span {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	end := r.replied
	if r.verified != 0 {
		end = r.verified
	}
	out := []span{
		{ID: r.id, Name: "client.request", StartUs: us(r.due), EndUs: us(end)},
		{ID: r.id, Name: "rpc.submit", Parent: "client.request", StartUs: us(r.sent), EndUs: us(r.replied)},
	}
	if r.verified != 0 {
		out = append(out, span{ID: r.id, Name: "client.verify", Parent: "client.request", StartUs: us(r.replied), EndUs: us(r.verified)})
	}
	return out
}

// writeSpans writes the run's spans as one JSON array under out/.
func writeSpans(workload string, spans []span) (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", fmt.Sprintf("trace-%s.json", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	enc := json.NewEncoder(w)
	for i := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&spans[i]); err != nil {
			return "", err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
