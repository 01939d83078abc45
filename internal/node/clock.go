package node

import "time"

// Clock is the tick seam between wall time and consensus logic. The
// consensus package counts ticks and never reads a clock, so a replayed
// sim run matches frame for frame (TestSimDeterministicReplay); the node
// runtime consumes whatever Clock it was configured with and converts
// tick arrivals into SyncTick / Retransmit / OnTimeout calls. Production
// nodes use a WallClock; tests hand-drive a ManualClock, which makes
// every timing scenario — stalls, retransmit cadence, sync backoff —
// reproducible without sleeping.
type Clock interface {
	// C delivers tick events. The tick value is opaque to the runtime;
	// only arrivals matter.
	C() <-chan time.Time
	// Stop releases the clock's resources. No more ticks are delivered.
	Stop()
}

// WallClock ticks at a fixed wall-time interval.
type WallClock struct {
	t *time.Ticker
}

// NewWallClock builds a ticking wall clock.
func NewWallClock(interval time.Duration) *WallClock {
	return &WallClock{t: time.NewTicker(interval)}
}

func (w *WallClock) C() <-chan time.Time { return w.t.C }
func (w *WallClock) Stop()               { w.t.Stop() }

// ManualClock delivers a tick per Advance call, synchronously: Advance
// returns only after the runtime has accepted the tick, so a test that
// calls Advance then inspects state observes the tick's effects.
type ManualClock struct {
	ch   chan time.Time
	done chan struct{}
}

// NewManualClock builds a hand-driven clock.
func NewManualClock() *ManualClock {
	return &ManualClock{ch: make(chan time.Time), done: make(chan struct{})}
}

func (m *ManualClock) C() <-chan time.Time { return m.ch }

func (m *ManualClock) Stop() {
	select {
	case <-m.done:
	default:
		close(m.done)
	}
}

// Advance delivers n ticks, blocking until each is accepted. Returns
// early if the clock is stopped.
func (m *ManualClock) Advance(n int) {
	for i := 0; i < n; i++ {
		select {
		case m.ch <- time.Time{}:
		case <-m.done:
			return
		}
	}
}
