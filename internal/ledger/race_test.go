//go:build race

package ledger

// raceEnabled reports a race-detector build, whose runtime drops sync.Pool
// items at random: allocation counts read higher, and vary.
const raceEnabled = true
