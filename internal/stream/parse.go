package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// pow10 holds the powers of ten that are exactly representable in a
// float64 (10^22 = 5^22 * 2^22, and 5^22 < 2^53). Dividing an exact
// mantissa by an exact power of ten performs a single correctly-rounded
// IEEE operation, which is the Clinger fast-path argument for why the
// result matches a full correctly-rounded decimal conversion bit for bit.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// maxMant is the largest mantissa that can take one more digit and stay
// below 2^53, the bound for exact integer representation in a float64.
const maxMant = ((1 << 53) - 1 - 9) / 10

// ParseFloatBytes parses a decimal floating-point number from a byte
// slice without converting it to a string first. Simple decimals — an
// optional sign, digits, an optional fraction, mantissa below 2^53 and at
// most 22 fractional digits — are converted directly via the Clinger
// fast path: float64(mantissa) / 10^frac, both operands exact, one
// correctly-rounded operation. Everything else (exponent forms, huge
// mantissas, Inf/NaN, digit separators, malformed input) falls back to
// strconv.ParseFloat on a freshly allocated string, so results are
// bit-identical to strconv.ParseFloat in all cases and the fallback is
// the only allocation site.
func ParseFloatBytes(b []byte) (float64, error) {
	if f, ok := parseSimple(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseSimple is the allocation-free fast path of ParseFloatBytes. The
// ok result reports whether the input was simple enough to convert
// exactly; on false the caller must re-parse with strconv.
func parseSimple(b []byte) (f float64, ok bool) {
	i, n := 0, len(b)
	if n == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	var mant uint64
	frac := 0
	sawDigit, sawDot := false, false
	for ; i < n; i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			if mant > maxMant {
				return 0, false // next digit could push past 2^53: not exact
			}
			mant = mant*10 + uint64(c-'0')
			sawDigit = true
			if sawDot {
				frac++
			}
		case c == '.' && !sawDot:
			sawDot = true
		default:
			return 0, false // exponents, separators, Inf/NaN, garbage
		}
	}
	if !sawDigit || frac >= len(pow10) {
		return 0, false
	}
	f = float64(mant) // exact: mant < 2^53
	if frac > 0 {
		f /= pow10[frac] // exact / exact: one correctly-rounded division
	}
	if neg {
		f = -f
	}
	return f, true
}

// parseValue parses one stream value. A stream carries finite values
// only: NaN and ±Inf parse as numbers, but they poison every summary's
// sums and cannot be encoded in a JSON answer, so they are rejected
// like malformed text.
func parseValue(text []byte) (float64, error) {
	v, err := ParseFloatBytes(text)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", text)
	}
	return v, nil
}

// AppendValues reads a value-per-line stream from r and appends every
// value to dst, returning the extended slice. Blank lines and '#'
// comments are skipped, and malformed or non-finite values are errors
// carrying line numbers, exactly like Reader. scratch is the scanner's line buffer; passing a reused buffer
// (and a dst with capacity) makes the whole pass allocation-free for
// inputs with lines that fit scratch. A nil scratch allocates a default
// buffer.
func AppendValues(dst []float64, r io.Reader, scratch []byte) ([]float64, error) {
	if scratch == nil {
		scratch = make([]byte, 64*1024)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(scratch, maxLine)
	line := int64(0)
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		v, err := parseValue(text)
		if err != nil {
			return dst, fmt.Errorf("stream: line %d: %w", line, err)
		}
		dst = append(dst, v)
	}
	if err := sc.Err(); err != nil {
		return dst, fmt.Errorf("stream: %w", err)
	}
	return dst, nil
}
