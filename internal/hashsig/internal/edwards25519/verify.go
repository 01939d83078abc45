package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"

	"iaccf/internal/hashsig/internal/edwards25519/field"
)

// table holds 32 rows of 8 affine multiples of a point P: row i, column j is
// (j+1)·16^(2i)·P, so a signed radix-16 digit of a scalar picks its term
// from one row, negating for a negative digit.
type table [32][8]affineCached

// basepoint is the table of B, built on first use.
var basepoint = sync.OnceValue(func() *table { return newTable(generator) })

// newTable builds the table of p. It computes the 256 multiples in extended
// coordinates and converts them to affine with one field inversion shared
// by all (Montgomery's trick) instead of one each.
func newTable(p *Point) *table {
	var pts [256]Point
	row := *p // 16^(2i)·p
	var c projCached
	var sum projP1xP1
	var dbl projP2
	for i := 0; i < 32; i++ {
		pts[8*i] = row
		c.FromP3(&row)
		for j := 1; j < 8; j++ {
			pts[8*i+j].fromP1xP1(sum.Add(&pts[8*i+j-1], &c))
		}
		// The next row's point is 256·row = 2^5·(8·row).
		dbl.FromP3(&pts[8*i+7])
		for j := 0; j < 4; j++ {
			dbl.FromP1xP1(sum.Double(&dbl))
		}
		row.fromP1xP1(sum.Double(&dbl))
	}

	// prefix[i] is the product of the Z coordinates of pts[:i].
	var prefix [256]field.Element
	var acc, inv, zInv, x, y field.Element
	acc.One()
	for i := range pts {
		prefix[i] = acc
		acc.Multiply(&acc, &pts[i].z)
	}
	inv.Invert(&acc)
	t := new(table)
	for i := len(pts) - 1; i >= 0; i-- {
		zInv.Multiply(&inv, &prefix[i]) // 1/Z_i
		inv.Multiply(&inv, &pts[i].z)   // 1/(Z_0 ⋯ Z_{i-1})
		x.Multiply(&pts[i].x, &zInv)
		y.Multiply(&pts[i].y, &zInv)
		e := &t[i/8][i%8]
		e.YplusX.Add(&y, &x)
		e.YminusX.Subtract(&y, &x)
		e.T2d.Multiply(&x, &y)
		e.T2d.Multiply(&e.T2d, d2)
	}
	return t
}

// addMultiple adds d·P to v, where row is a row of P's table and
// -8 ≤ d ≤ 8. A zero digit adds nothing.
func (v *Point) addMultiple(row *[8]affineCached, d int8) {
	var sum projP1xP1
	switch {
	case d > 0:
		sum.AddAffine(v, &row[d-1])
	case d < 0:
		sum.SubAffine(v, &row[-d-1])
	default:
		return
	}
	v.fromP1xP1(&sum)
}

// A Key is an Ed25519 public key A ready to verify: its encoding and the
// table of −A. A Key is immutable and safe for concurrent use.
type Key struct {
	a   [32]byte
	neg *table
}

// NewKey decodes the 32-byte public key pub, as crypto/ed25519 does, and
// builds its table. It fails if pub is not 32 bytes or not a curve point.
func NewKey(pub []byte) (*Key, error) {
	if len(pub) != 32 {
		return nil, errors.New("edwards25519: bad public key length")
	}
	var a Point
	if _, err := a.SetBytes(pub); err != nil {
		return nil, err
	}
	k := &Key{neg: newTable(a.Negate(&a))}
	copy(k.a[:], pub)
	return k, nil
}

// Verify reports whether sig is a valid Ed25519 signature (RFC 8032, R ‖ S)
// by k over msg. It makes crypto/ed25519.Verify's checks: sig is 64 bytes,
// S < ℓ, and with k = SHA-512(R ‖ A ‖ msg) mod ℓ the point
// [S]B + [k](−A) encodes to exactly the bytes R.
func (k *Key) Verify(msg, sig []byte) bool {
	if len(sig) != 64 || !isReduced((*[32]byte)(sig[32:])) {
		return false
	}
	var buf [96]byte
	h := sha512.Sum512(append(append(append(buf[:0], sig[:32]...), k.a[:]...), msg...))
	var kb [32]byte
	reduce(&kb, &h)
	sd, kd := signedRadix16((*[32]byte)(sig[32:])), signedRadix16(&kb)
	b := basepoint()

	// [S]B + [k](−A) = Σ 16^i·(s_i·B + k_i·(−A)): the odd digits' terms
	// first, then 16 times that, then the even digits' terms, so every
	// digit reads 16^(2j)·P from row j of a table.
	v := *identity
	for i := 1; i < 64; i += 2 {
		v.addMultiple(&b[i/2], sd[i])
		v.addMultiple(&k.neg[i/2], kd[i])
	}
	var p2 projP2
	var p1 projP1xP1
	p2.FromP3(&v)
	for j := 0; j < 3; j++ {
		p2.FromP1xP1(p1.Double(&p2))
	}
	v.fromP1xP1(p1.Double(&p2))
	for i := 0; i < 64; i += 2 {
		v.addMultiple(&b[i/2], sd[i])
		v.addMultiple(&k.neg[i/2], kd[i])
	}

	var r [32]byte
	return bytes.Equal(v.bytes(&r), sig[:32])
}

// order is the group order ℓ = 2^252 + 27742317777372353535851937790883648493
// in little-endian 64-bit limbs.
var order = [4]uint64{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000}

// isReduced reports whether the little-endian scalar s is below ℓ.
func isReduced(s *[32]byte) bool {
	var w [5]uint64
	for i := 0; i < 4; i++ {
		w[i] = binary.LittleEndian.Uint64(s[8*i:])
	}
	return isBelowOrder(&w)
}

// barrettMu is ⌊2^512 / ℓ⌋.
var barrettMu = [5]uint64{0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb, 0xffffffffffffffff, 0xf}

// reduce sets out to the little-endian 512-bit integer in reduced modulo ℓ,
// by Barrett reduction with base 2^64 and k = 4 (Menezes et al., Handbook of
// Applied Cryptography, Algorithm 14.42).
func reduce(out *[32]byte, in *[64]byte) {
	var x [8]uint64
	for i := range x {
		x[i] = binary.LittleEndian.Uint64(in[8*i:])
	}

	// q = ⌊⌊x / 2^192⌋ · μ / 2^320⌋, which undershoots ⌊x / ℓ⌋ by at most 2.
	var qmu [10]uint64
	for i := 0; i < 5; i++ {
		var carry uint64
		for j := 0; j < 5; j++ {
			qmu[i+j], carry = mulAdd(x[3+i], barrettMu[j], qmu[i+j], carry)
		}
		qmu[i+5] = carry
	}
	q := qmu[5:]

	// r = (x − q·ℓ) mod 2^320, then at most two subtractions of ℓ.
	var ql [5]uint64
	for i := 0; i < 5; i++ {
		var carry uint64
		for j := 0; j < 4 && i+j < 5; j++ {
			ql[i+j], carry = mulAdd(q[i], order[j], ql[i+j], carry)
		}
		if i == 0 {
			ql[4] = carry
		}
	}
	var r [5]uint64
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(x[i], ql[i], borrow)
	}
	for !isBelowOrder(&r) {
		borrow = 0
		for i := 0; i < 4; i++ {
			r[i], borrow = bits.Sub64(r[i], order[i], borrow)
		}
		r[4] -= borrow
	}
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], r[i])
	}
}

// isBelowOrder reports whether the five-limb r is below ℓ.
func isBelowOrder(r *[5]uint64) bool {
	if r[4] != 0 {
		return false
	}
	for i := 3; i >= 0; i-- {
		if r[i] != order[i] {
			return r[i] < order[i]
		}
	}
	return false
}

// mulAdd returns the low and high words of a·b + c + d, which cannot
// overflow 128 bits.
func mulAdd(a, b, c, d uint64) (lo, hi uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return lo, hi
}
