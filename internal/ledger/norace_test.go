//go:build !race

package ledger

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
