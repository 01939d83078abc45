package field

import (
	"math/rand"
	"testing"
)

// randomElement returns an element with limbs below 2^52, the bound the
// arithmetic accepts between operations.
func randomElement(rng *rand.Rand) *Element {
	const mask = 1<<52 - 1
	return &Element{rng.Uint64() & mask, rng.Uint64() & mask, rng.Uint64() & mask, rng.Uint64() & mask, rng.Uint64() & mask}
}

// TestMulMatchesGeneric holds feMul and feSquare, which are assembly on
// amd64, to the generic code every other architecture runs.
func TestMulMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b := randomElement(rng), randomElement(rng)
		var got, want Element
		feMul(&got, a, b)
		feMulGeneric(&want, a, b)
		if got.Equal(&want) != 1 {
			t.Fatalf("feMul(%v, %v) = %v, generic %v", a, b, got, want)
		}
		feSquare(&got, a)
		feSquareGeneric(&want, a)
		if got.Equal(&want) != 1 {
			t.Fatalf("feSquare(%v) = %v, generic %v", a, got, want)
		}
	}
}
