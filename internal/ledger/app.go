package ledger

import (
	"errors"
	"fmt"

	"iaccf/internal/kv"
	"iaccf/internal/wire"
)

// App executes application transactions against the key-value store. An
// App MUST be deterministic: given the same store state and request it
// must produce the same write set (and the same error outcome), or replay
// by an auditor would diverge from the primary's execution and wrongly
// flag misbehaviour (paper §5).
//
// Execute must not write to request: it is the entry's payload, and an
// auditor's replay digests the entry on another goroutine while it
// executes (core.reproduce), as the entry hasher does on every policy once
// a transaction has run.
type App interface {
	Execute(tx *kv.Tx, request []byte) error
}

// ErrBadRequest reports a request payload the application cannot decode.
var ErrBadRequest = errors.New("ledger: malformed request payload")

// Op is one key-value operation inside a KVApp request.
type Op struct {
	Key    string
	Val    []byte
	Delete bool
}

// EncodeOps builds a KVApp request payload from a list of operations.
func EncodeOps(ops []Op) []byte {
	out := wire.AppendUint32(nil, uint32(len(ops)))
	for _, op := range ops {
		if op.Delete {
			out = append(out, 0x00)
			out = wire.AppendString(out, op.Key)
		} else {
			out = append(out, 0x01)
			out = wire.AppendString(out, op.Key)
			out = wire.AppendBytes(out, op.Val)
		}
	}
	return out
}

// KVApp is the built-in application: a request is a wire-encoded list of
// put/delete operations (EncodeOps). It exists for tests, benchmarks, and
// as the reference for the determinism contract; real deployments plug in
// their own App.
type KVApp struct{}

// Execute applies the request's operations to the transaction. Values are
// decoded as views into the request buffer (no copy): they flow only into
// tx.Put, which copies, and the request outlives the call.
func (KVApp) Execute(tx *kv.Tx, request []byte) error {
	r := wire.NewBytesReader(request)
	n := r.Uint32()
	const maxOps = 1 << 16
	if r.Err() == nil && n > maxOps {
		return fmt.Errorf("%w: %d ops", ErrBadRequest, n)
	}
	type op struct {
		key string
		val []byte
		del bool
	}
	ops := make([]op, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		switch tag := r.Byte(); tag {
		case 0x00:
			ops = append(ops, op{key: r.String(wire.MaxKeyLen), del: true})
		case 0x01:
			ops = append(ops, op{key: r.String(wire.MaxKeyLen), val: r.BytesView(wire.MaxValueLen)})
		default:
			if r.Err() == nil {
				return fmt.Errorf("%w: op tag %d", ErrBadRequest, tag)
			}
		}
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Apply only after the whole request decodes: a half-applied malformed
	// request would leave the abort/commit decision ambiguous.
	for _, o := range ops {
		if o.del {
			tx.Delete(o.key)
		} else {
			tx.Put(o.key, o.val)
		}
	}
	return nil
}
