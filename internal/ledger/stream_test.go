package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"iaccf/internal/kv"
	"iaccf/internal/wire"
)

// TestReadBatchesRejectsLegacy: a stream of any version but the current
// one is refused up front with a clear error — the previous two carry
// header fields this version does not, so they must not be half-decoded —
// and so are foreign bytes.
func TestReadBatchesRejectsLegacy(t *testing.T) {
	for _, v := range []uint32{wire.StreamVCurrent + 1, 3, 2} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Uint32(wire.StreamMagic)
		w.Uint32(v)
		w.Uint32(1) // a version-2 or -3 stream's shard count
		w.Uint32(0) // batch count
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported stream version %d", v)
		if _, err := ReadBatches(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d stream: err = %v, want %q", v, err, want)
		}
	}
	if _, err := ReadBatches(bytes.NewReader([]byte("not a ledger stream"))); err == nil {
		t.Fatal("foreign bytes accepted")
	}
}

// Satellite: Batches used to return the internal slice; callers could
// mutate retained history the ledger (and later audits) depend on.
func TestBatchesReturnsDefensiveCopy(t *testing.T) {
	l := newTestLedger(t, 0)
	for seq := uint64(1); seq <= 3; seq++ {
		if _, _, err := l.ExecuteBatch([]Request{putReq("c", seq, "k", "v")}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Batches()
	got[0] = nil
	got[1] = nil
	clean := l.Batches()
	if clean[0] == nil || clean[1] == nil {
		t.Fatal("mutating the returned slice clobbered retained history")
	}
	if _, err := Replay(clean, testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("history corrupted through Batches: %v", err)
	}
}

// Satellite: configuration is validated once in New.
func TestConfigValidatedInNew(t *testing.T) {
	// Shards is bench/'s name for the one store: 0 or 1. Any other value is
	// a construction error, not a silent one-store run.
	for _, shards := range []uint32{0, 1} {
		if _, err := New(Config{Key: testKey, App: KVApp{}, Shards: shards}); err != nil {
			t.Fatalf("Shards: %d refused: %v", shards, err)
		}
	}
	if _, err := New(Config{Key: testKey, App: KVApp{}, Shards: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("Shards: 2: err = %v, want ErrConfig", err)
	}
	// CheckpointEvery 0 still means "every batch" after normalization.
	l := newTestLedger(t, 0)
	batch, _, err := l.ExecuteBatch([]Request{putReq("c", 1, "k", "v")})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range batch.Entries {
		if e.Kind == KindCheckpoint {
			found = true
		}
	}
	if !found {
		t.Fatal("CheckpointEvery=0 did not checkpoint the first batch")
	}
}

// panicApp executes normally until armed, then panics mid-batch — modeling
// a buggy application — so the pipeline's panic path can be exercised.
type panicApp struct {
	arm bool
}

func (p *panicApp) Execute(tx *kv.Tx, request []byte) error {
	if p.arm {
		panic("app bug")
	}
	return KVApp{}.Execute(tx, request)
}

// A panicking App must not leak the hashing goroutine, and the mark pushed
// at batch start must let the caller roll the half-executed batch back and
// continue.
func TestExecuteBatchPanicIsRecoverable(t *testing.T) {
	app := &panicApp{}
	l, err := New(Config{Key: testKey, App: app, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 1, "k1", "v")}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	app.arm = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking app did not propagate")
			}
		}()
		l.ExecuteBatch([]Request{putReq("c", 2, "k2", "v")})
	}()
	app.arm = false
	// The hashing goroutine drains and exits via the deferred close.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("hashing goroutine leaked: %d goroutines, baseline %d", got, before)
	}
	// Recover by undoing the poisoned batch, then continue normally.
	if err := l.RollbackTo(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExecuteBatch([]Request{putReq("c", 2, "k2", "v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(l.Batches(), testKey.Public(), KVApp{}, nil); err != nil {
		t.Fatalf("post-recovery history does not replay: %v", err)
	}
}
