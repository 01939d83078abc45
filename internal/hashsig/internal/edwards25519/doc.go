// Package edwards25519 is the part of Go 1.24.0's
// crypto/internal/fips140/edwards25519 that Ed25519 verification calls, plus
// one algorithm of its own: verification against a per-key table.
//
// # Provenance
//
// Copied from Go 1.24.0 (BSD licence, LICENSE in this directory), each file
// keeping its copyright header: field/fe.go, field/fe_generic.go,
// field/fe_amd64.go, field/fe_amd64.s (generated by avo; the generator is
// not copied), field/fe_amd64_noasm.go, edwards25519.go, and
// signedRadix16 from scalar.go. The internal imports were switched to
// encoding/binary and crypto/subtle, and the FIPS self-check import dropped.
//
// Cut: everything verification does not call — the Scalar type and its
// fiat-crypto Montgomery arithmetic, constant-time and variable-base scalar
// multiplication with their lookup tables and NAF digits, point equality,
// selection, conditional negation and the uninitialized-point check, and
// the field's Swap and Mult32. The arm64 carry-propagation assembly is cut
// too: off amd64, and under the purego build tag, the field runs its
// generic Go code.
//
// Added (verify.go): Key, the per-key table, Barrett reduction modulo ℓ, and
// Verify.
//
// # The per-key table
//
// Every signature this system checks is made by one of a few fixed replica
// keys, so Key precomputes, for −A (the negated public key), 32 rows of the
// 8 affine multiples of 16^(2i)·(−A), the same shape as the basepoint table
// of "High-speed high-security signatures" (Bernstein et al., CHES 2011).
// Both tables are built by one routine with one batched field inversion
// (Montgomery's trick). Verify then computes R′ = [S]B + [k](−A) from the
// signed radix-16 digits of S and k by table picks alone: at most 128 mixed
// additions and 4 doublings, where crypto/ed25519 decompresses the key and
// runs about 256 doublings and 70 additions. It makes exactly
// crypto/ed25519's checks, so the verdicts agree (edwards25519_test.go and
// hashsig's FuzzVerifyMatchesStdlib).
//
// Verification is variable-time: its inputs are public.
package edwards25519
