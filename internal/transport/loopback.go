package transport

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// TamperPolicy parameterizes the loopback hub's adversarial schedule.
// Zero values mean in-order, lossless delivery.
type TamperPolicy struct {
	// DropRate is the probability a frame is lost. Senders retransmit, so
	// loss is the only drop rule a schedule needs.
	DropRate float64
	// ReorderWindow lets Step pick any of the first W queued frames
	// instead of the head (0 or 1 means strict FIFO).
	ReorderWindow int
	// Cut, when set, is a partition's verdict on a link at this moment. It
	// is consulted for each frame Step picks, once per Step for each link
	// holding frames, and once more for each further frame of a link whose
	// held frames it loses, so a Lose verdict is given once per frame.
	Cut func(from, to NodeID) Cut
}

// Cut is a partition's verdict on one frame.
type Cut uint8

const (
	// Pass delivers the frame (subject to DropRate).
	Pass Cut = iota
	// Hold keeps the frame aside until the link's verdict is Pass again.
	Hold
	// Lose discards the frame: the overflowed-buffer model, where a
	// partitioned peer can only recover what it missed by asking for it.
	Lose
)

// Hub is an in-process transport double: endpoints implement Transport,
// frames land in one central queue, and the driver delivers them one Step
// at a time under a seeded adversarial schedule. Determinism contract: a
// single-threaded driver with the same seed, policy, and send sequence
// sees the same delivery sequence — which is what lets a failing
// simulation (internal/sim) be replayed by its seed.
type Hub struct {
	mu     sync.Mutex
	rng    *rand.Rand
	policy TamperPolicy
	eps    map[NodeID]*loopEndpoint
	queue  []loopFrame
	held   []heldLink // frames a Hold verdict keeps aside, by link
	holds  uint64     // frames held so far: the next held frame's place
}

type loopFrame struct {
	from, to NodeID
	body     []byte
}

// heldLink is one link's held frames, in the order they were held.
type heldLink struct {
	from, to NodeID
	frames   []heldFrame
}

// heldFrame is a held frame and its place in the hub's hold order.
type heldFrame struct {
	loopFrame
	n uint64
}

// NewHub builds a hub with a seeded schedule.
func NewHub(seed int64, policy TamperPolicy) *Hub {
	if policy.Cut == nil {
		policy.Cut = func(NodeID, NodeID) Cut { return Pass }
	}
	return &Hub{
		rng:    rand.New(rand.NewSource(seed)),
		policy: policy,
		eps:    make(map[NodeID]*loopEndpoint),
	}
}

// loopEndpoint is one node's view of the hub.
type loopEndpoint struct {
	hub     *Hub
	id      NodeID
	handler Handler
	closed  bool
}

// Endpoint registers a node on the hub and returns its Transport. The
// handler runs inside Step, on the driving goroutine.
func (h *Hub) Endpoint(id NodeID, handler Handler) Transport {
	h.mu.Lock()
	defer h.mu.Unlock()
	ep := &loopEndpoint{hub: h, id: id, handler: handler}
	h.eps[id] = ep
	return ep
}

// enqueue copies the body: the Transport contract gives the transport
// ownership of sent frames, and the Handler contract says delivered
// buffers are transport-owned, so the hub must hold its own copy either
// way.
func (h *Hub) enqueue(from, to NodeID, body []byte) {
	h.queue = append(h.queue, loopFrame{from: from, to: to, body: append([]byte(nil), body...)})
}

// Step delivers, holds or loses one queued frame and reports whether
// frames remain queued. Held frames whose link now passes rejoin the queue
// first, in the order they were held. The reorder pick and the drop draw
// come from the seeded rng, in that order; a Cut verdict draws nothing.
func (h *Hub) Step() bool {
	h.mu.Lock()
	h.release()
	if len(h.queue) == 0 {
		h.mu.Unlock()
		return false
	}
	i := 0
	if w := min(h.policy.ReorderWindow, len(h.queue)); w > 1 {
		i = h.rng.Intn(w)
	}
	f := h.queue[i]
	h.queue = append(h.queue[:i], h.queue[i+1:]...)
	var ep *loopEndpoint
	switch h.policy.Cut(f.from, f.to) {
	case Hold:
		h.hold(f)
	case Pass:
		if h.policy.DropRate == 0 || h.rng.Float64() >= h.policy.DropRate {
			ep = h.eps[f.to]
		}
	}
	h.mu.Unlock()
	if ep != nil && ep.handler != nil {
		ep.handler(f.from, f.body)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queue) > 0
}

// hold sets f aside on its link.
func (h *Hub) hold(f loopFrame) {
	i := slices.IndexFunc(h.held, func(l heldLink) bool { return l.from == f.from && l.to == f.to })
	if i < 0 {
		i = len(h.held)
		h.held = append(h.held, heldLink{from: f.from, to: f.to})
	}
	h.held[i].frames = append(h.held[i].frames, heldFrame{f, h.holds})
	h.holds++
}

// release asks each link holding frames for its verdict once: the frames
// of a link that passes again rejoin the queue, all of them in the order
// they were held, and those of a link that now loses them are discarded.
func (h *Hub) release() {
	var passed []heldFrame
	kept := h.held[:0]
	for _, l := range h.held {
		switch h.policy.Cut(l.from, l.to) {
		case Hold:
			kept = append(kept, l)
		case Pass:
			passed = append(passed, l.frames...)
		case Lose:
			// The probe was the first frame's verdict; every other frame
			// gets its own, so a partition counts each frame it discards.
			for range l.frames[1:] {
				h.policy.Cut(l.from, l.to)
			}
		}
	}
	clear(h.held[len(kept):])
	h.held = kept
	slices.SortFunc(passed, func(a, b heldFrame) int { return cmp.Compare(a.n, b.n) })
	for _, f := range passed {
		h.queue = append(h.queue, f.loopFrame)
	}
}

func (ep *loopEndpoint) Send(to NodeID, frame []byte) error {
	h := ep.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep.closed {
		return ErrClosed
	}
	if to == ep.id {
		return nil
	}
	if _, ok := h.eps[to]; !ok {
		return nil // dead peer: best-effort, like a down TCP lane
	}
	h.enqueue(ep.id, to, frame)
	return nil
}

func (ep *loopEndpoint) Broadcast(frame []byte) error {
	h := ep.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if ep.closed {
		return ErrClosed
	}
	// Enqueue in ascending peer order: map iteration order would leak
	// scheduler nondeterminism into the seeded delivery sequence.
	ids := make([]NodeID, 0, len(h.eps))
	for id := range h.eps {
		if id != ep.id {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h.enqueue(ep.id, id, frame)
	}
	return nil
}

func (ep *loopEndpoint) Close() error {
	h := ep.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	ep.closed = true
	delete(h.eps, ep.id)
	return nil
}
