package grid

import (
	"math"
	"math/bits"
	"strconv"
)

// parseDecimal returns strconv.ParseFloat(string(b), 64), bit for bit and
// error for error: decodeDecimal decodes the plain decimals WriteCSV writes
// for most values, and ParseFloat parses the rest and reports the errors.
func parseDecimal(b []byte) (float64, error) {
	if v, ok := decodeDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// decodeDecimal decodes b if it is a plain decimal,
//
//	-?digits[.digits]  with at most 19 significant and 1–19 fraction digits,
//
// into the nearest float64, ties to even, as ParseFloat would. It reports
// false for anything else: exponents, a leading '+' or '.', a trailing '.',
// inf and nan, underscores, longer mantissas, malformed text.
//
// An accepted decimal is m / 10^f for its significant digits m < 10^19 and
// its fraction digit count f, so it lies in [10⁻¹⁹, 2⁶⁴) unless it is zero:
// a normal float64. With d = 10^f and s = 63 + bitlen(d) − bitlen(m),
// m·2^s / d lies in [2^62, 2^64), so one 128-by-64-bit division gives a
// quotient q of 63 or 64 bits and a remainder. q's top 53 bits, rounded half
// to even on the dropped bits with the remainder as the sticky bit, are the
// correctly rounded significand, and scaling it by 2^(dropped − s) is exact.
func decodeDecimal(b []byte) (float64, bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var m uint64 // significant digits so far
	d := uint64(1)
	sig := 0 // significant digits in m: leading zeros do not count
	intStart := i
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if sig == 19 {
			return 0, false
		}
		m = m*10 + uint64(c)
		if m != 0 {
			sig++
		}
	}
	if i == intStart {
		return 0, false
	}
	if i < len(b) {
		if b[i] != '.' || i+1 == len(b) {
			return 0, false
		}
		for i++; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 || sig == 19 || d > 1e18 {
				return 0, false
			}
			m = m*10 + uint64(c)
			d *= 10
			if m != 0 {
				sig++
			}
		}
	}
	var v float64
	switch {
	case m == 0:
	case d == 1:
		v = float64(m) // Go converts integers to floats rounding to nearest even
	default:
		s := uint(63 + bits.Len64(d) - bits.Len64(m)) // in 3…126
		var hi, lo uint64
		if s < 64 {
			hi, lo = m>>(64-s), m<<s
		} else {
			hi = m << (s - 64)
		}
		q, rem := bits.Div64(hi, lo, d)
		drop := uint(bits.Len64(q) - 53)
		mant := q >> drop
		half := uint64(1) << (drop - 1)
		if low := q & (half<<1 - 1); low > half || low == half && (rem != 0 || mant&1 == 1) {
			mant++ // may carry to 2^53, which float64 still holds exactly
		}
		v = math.Ldexp(float64(mant), int(drop)-int(s))
	}
	if neg {
		v = -v
	}
	return v, true
}
