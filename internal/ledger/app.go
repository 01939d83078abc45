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
// flag misbehaviour (paper §5). When Execute returns an error the caller
// aborts tx, so whatever it wrote before failing never commits.
//
// Execute must not write to request: it is the entry's payload, which
// every policy digests once the transaction has run, and an auditor's
// replay digests it on its checker goroutine while later entries execute
// (core.check).
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

// Execute applies the request's operations to the transaction as it
// decodes them. A malformed request fails part-way, with the operations
// before the fault already in tx; its error makes the caller abort tx, so
// nothing of it commits.
func (KVApp) Execute(tx *kv.Tx, request []byte) error {
	r := wire.NewBytesReader(request)
	n := r.Uint32()
	const maxOps = 1 << 16
	if r.Err() == nil && n > maxOps {
		return fmt.Errorf("%w: %d ops", ErrBadRequest, n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		switch tag := r.Byte(); tag {
		case 0x00:
			tx.Delete(r.String(wire.MaxKeyLen))
		case 0x01:
			k := r.String(wire.MaxKeyLen)
			tx.Put(k, r.Bytes(wire.MaxValueLen))
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
	return nil
}
