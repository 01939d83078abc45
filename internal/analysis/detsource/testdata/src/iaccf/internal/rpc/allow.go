// Fixture loaded under the real rpc import path: the client RPC owns its
// connection deadlines and is exempt from the deterministic scope, so this
// must not fire.
package rpc

import "time"

func deadline(timeout time.Duration) time.Time {
	return time.Now().Add(timeout)
}
