package grid

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// plainDecimal reports whether s is in decodeDecimal's grammar:
// -?digits[.digits] with at most 19 significant and 1–19 fraction digits.
func plainDecimal(s string) bool {
	s = strings.TrimPrefix(s, "-")
	whole, frac, point := strings.Cut(s, ".")
	digits := func(x string) bool { return strings.Trim(x, "0123456789") == "" }
	if whole == "" || !digits(whole) || point && (frac == "" || len(frac) > 19 || !digits(frac)) {
		return false
	}
	return len(strings.TrimLeft(whole+frac, "0")) <= 19
}

// checkDecimal asserts that parseDecimal(s) returns what strconv.ParseFloat
// returns, the same bits or the same error text, and that decodeDecimal
// takes s exactly when it is a plain decimal.
func checkDecimal(t *testing.T, s string) {
	t.Helper()
	got, err := parseDecimal([]byte(s))
	want, werr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), %v; ParseFloat = %v (%#x), %v",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), werr)
	}
	if _, ok := decodeDecimal([]byte(s)); ok != plainDecimal(s) {
		t.Fatalf("decodeDecimal(%q) took it: %v, in the grammar: %v", s, ok, !ok)
	}
}

// halfwayTies returns decimals that lie exactly halfway between two
// neighbouring float64s, each with the neighbours just above and below it
// in its last digit and with a 1 appended. Below 2^49 a halfway point needs
// more than 19 digits, so they come from [2^49, 2^64).
func halfwayTies(rng *rand.Rand) []string {
	var out []string
	for e := 49; e < 64; e++ {
		for n := 0; n < 40; n++ {
			mant := int64(1)<<52 | rng.Int63n(1<<52)
			if n < 2 { // the smallest and largest significand of the binade
				mant = int64(1)<<52 | int64(n)*(1<<52-1)
			}
			mid := new(big.Int).SetInt64(2*mant + 1) // (2·mant+1)·2^(e−53)
			frac := 0
			if e >= 53 {
				mid.Lsh(mid, uint(e-53))
			} else {
				// (2·mant+1) / 2^j = (2·mant+1)·5^j / 10^j.
				frac = 53 - e
				mid.Mul(mid, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(frac)), nil))
			}
			digits := mid.String()
			for _, d := range []string{digits, add(digits, 1), add(digits, -1), digits + "1"} {
				f := frac
				if d == digits+"1" {
					f++
				}
				s := d[:len(d)-f] + "." + d[len(d)-f:]
				if f == 0 {
					s = d + ".0"
					out = append(out, d) // the integer path
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// add returns the decimal digit string d plus delta.
func add(d string, delta int64) string {
	n, _ := new(big.Int).SetString(d, 10)
	return n.Add(n, big.NewInt(delta)).String()
}

// TestParseDecimalMatchesParseFloat checks the decoder against
// strconv.ParseFloat on edge cases, constructed halfway ties, random digit
// strings with the point anywhere, and random values as WriteCSV formats
// them. The 1024² taxi-multi input and its reconstructed output are checked
// value by value in TestReadCSVMatchesReferenceAt1024.
func TestParseDecimalMatchesParseFloat(t *testing.T) {
	edges := []string{
		"0", "-0", "0.0", "-0.0", "-0.000", "00", "007.50", "-00.0010",
		"0000000000000000000000000000001.5", "0.0000000000000000001", "-0.0000000000000000009",
		"1234567890123456789", "9999999999999999999", "1.234567890123456789",
		"0.1234567890123456789", "999999999999999999.9", "18446744073709551615",
		"12345678901234567890", "1.2345678901234567890", "0.00000000000000000001",
		"0.00000000000000000012", "10000000000000000000", "100000000000000000000.5",
		"9007199254740993", "9007199254740993.0", "9007199254740993.00", "-9007199254740995.0",
		"4503599627370496.5", "4503599627370497.5", "4503599627370496.49", "4503599627370496.51",
		"309.07575305810917", "1080.1062409399551", "0.1", "0.3", "2.5", "-7",
		".5", "5.", "+1", "1e5", "1E5", "-.5", "-", "", ".", "1.2.3", "--1", "1-", " 1", "1 ",
		"0x10", "0x1p-2", "1_000", "inf", "-Inf", "NaN", "nan", "Infinity", "1e400", "1e-400",
	}
	for _, s := range edges {
		checkDecimal(t, s)
	}
	rng := rand.New(rand.NewSource(21))
	for _, s := range halfwayTies(rng) {
		checkDecimal(t, s)
		checkDecimal(t, "-"+s)
	}
	// 1–19 digits with the point before, inside, after or absent.
	buf := make([]byte, 0, 24)
	for n := 0; n < 300_000; n++ {
		digits := 1 + rng.Intn(19)
		point := rng.Intn(digits + 2)
		buf = buf[:0]
		if rng.Intn(4) == 0 {
			buf = append(buf, '-')
		}
		zeros := rng.Intn(digits + 1) // leading zeros: a small significand
		for i := 0; i < digits; i++ {
			if i == point {
				buf = append(buf, '.')
			}
			if i < zeros && rng.Intn(2) == 0 {
				buf = append(buf, '0')
			} else {
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
		}
		if point == digits {
			buf = append(buf, '.')
		}
		checkDecimal(t, string(buf))
	}
	// Random values across magnitudes, formatted the way WriteCSV formats
	// them ('g', shortest) and in plain positional form.
	for n := 0; n < 200_000; n++ {
		v := rng.Float64() * math.Pow(10, float64(rng.Intn(30)-12))
		if n%2 == 1 {
			v = -v
		}
		if n%5 == 0 {
			v = math.Float64frombits(rng.Uint64())
		}
		checkDecimal(t, strconv.FormatFloat(v, 'g', -1, 64))
		checkDecimal(t, strconv.FormatFloat(v, 'f', -1, 64))
	}
}

// FuzzParseDecimal: for any text, parseDecimal returns ParseFloat's bits and
// error, and decodeDecimal takes exactly the plain decimals.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{"0", "-0.0", "309.07575305810917", "9007199254740993.0",
		"4503599627370496.5", "1234567890123456789", "12345678901234567890",
		"0.00000000000000000001", ".5", "5.", "+1", "1e5", "NaN", "-"} {
		f.Add(s)
	}
	f.Fuzz(checkDecimal)
}
