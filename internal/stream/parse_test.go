package stream

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseCases covers both fast-path shapes and every fallback trigger:
// exponents, >2^53 mantissas, >22 fractional digits, specials, digit
// separators, hex floats, and malformed input.
var parseCases = []string{
	"0", "-0", "+0", "0.0", "-0.0",
	"1", "-1", "+1", "42", "007",
	"1.5", "-1.5", ".5", "-.5", "5.", "-5.",
	"0.1", "0.2", "0.3", "3.14159265358979",
	"1234567890.0987654321",
	"9007199254740992",               // 2^53: still exact
	"9007199254740993",               // 2^53+1: fallback
	"900719925474098",                // maxMant boundary
	"900719925474099",                // just past the guard
	"123456789012345678901234567890", // huge mantissa
	"0.0000000000000000000001",       // 22 fractional digits
	"0.00000000000000000000001",      // 23: fallback
	"1e10", "1E10", "-2.5e-3", "1e309", "5e-324", "1.7976931348623157e308",
	"Inf", "-Inf", "+Inf", "inf", "NaN", "nan",
	"1_000", "1_0.5", "0x1p3", "0x.8p1",
	"", "+", "-", ".", "+.", "-.", "..", "1..2", "1.2.3",
	"abc", "1a", "a1", "1 2", " 1", "1 ",
	"--1", "++1", "1-", "1+", "1e", "1e+", "e5",
}

// TestParseFloatBytesMatchesStrconv pins ParseFloatBytes to
// strconv.ParseFloat bit for bit (including the sign of zero) and
// error-for-error on every case.
func TestParseFloatBytesMatchesStrconv(t *testing.T) {
	for _, s := range parseCases {
		got, gotErr := ParseFloatBytes([]byte(s))
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("ParseFloatBytes(%q) err = %v, strconv err = %v", s, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ParseFloatBytes(%q) err = %q, strconv err = %q", s, gotErr, wantErr)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ParseFloatBytes(%q) = %v (%#x), strconv = %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestParseFloatBytesRandom cross-checks randomly generated simple
// decimals — the shapes the fast path claims — against strconv.
func TestParseFloatBytesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf []byte
	for i := 0; i < 20000; i++ {
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, '-')
		}
		intDigits := rng.Intn(17)
		for j := 0; j < intDigits; j++ {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		fracDigits := 0
		if rng.Intn(2) == 0 {
			buf = append(buf, '.')
			fracDigits = rng.Intn(24)
			for j := 0; j < fracDigits; j++ {
				buf = append(buf, byte('0'+rng.Intn(10)))
			}
		}
		s := string(buf)
		got, gotErr := ParseFloatBytes(buf)
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseFloatBytes(%q) err = %v, strconv err = %v", s, gotErr, wantErr)
		}
		if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloatBytes(%q) = %#x, strconv = %#x",
				s, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestParseFloatBytesZeroAlloc verifies the fast path allocates nothing.
func TestParseFloatBytesZeroAlloc(t *testing.T) {
	inputs := [][]byte{[]byte("0.7312"), []byte("-12345.875"), []byte("42")}
	allocs := testing.AllocsPerRun(200, func() {
		for _, in := range inputs {
			if _, err := ParseFloatBytes(in); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fast path allocates %v per run, want 0", allocs)
	}
}

// TestAppendValuesMatchesReadAll pins AppendValues to ReadAll on the
// same input, including comment/blank skipping and error line numbers.
func TestAppendValuesMatchesReadAll(t *testing.T) {
	in := "1.5\n\n# comment\n  2 \n-3e2\n0.125\n"
	want, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendValues(nil, strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("values[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	_, err = AppendValues(nil, strings.NewReader("1\nnope\n"), nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v, want line 2 parse error", err)
	}
}

// TestNonFiniteValuesRejected checks that both line parsers refuse NaN
// and ±Inf in every spelling strconv accepts, naming the line, while
// ParseFloatBytes itself still returns them as strconv does.
func TestNonFiniteValuesRejected(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "inf", "-infinity", "1e400"} {
		in := "1\n" + bad + "\n2\n"
		if _, err := AppendValues(nil, strings.NewReader(in), nil); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("AppendValues(%q) error = %v, want a line 2 error", in, err)
		}
		r := NewReader(strings.NewReader(in))
		if v, err := r.Next(); err != nil || v != 1 {
			t.Fatalf("Reader.Next on %q = %v, %v, want 1", in, v, err)
		}
		if v, err := r.Next(); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("Reader.Next on %q = %v, %v, want a line 2 error", in, v, err)
		}
	}
	if v, err := ParseFloatBytes([]byte("NaN")); err != nil || !math.IsNaN(v) {
		t.Errorf("ParseFloatBytes(NaN) = %v, %v, want NaN as strconv returns", v, err)
	}
}

// TestAppendValuesReusesDst checks that a warm dst/scratch pair makes the
// whole pass allocation-free.
func TestAppendValuesReusesDst(t *testing.T) {
	var payload bytes.Buffer
	for i := 0; i < 256; i++ {
		payload.WriteString("0.")
		payload.WriteString(strconv.Itoa(1000 + i))
		payload.WriteByte('\n')
	}
	scratch := make([]byte, 64*1024)
	dst := make([]float64, 0, 256)
	rd := bytes.NewReader(payload.Bytes())
	allocs := testing.AllocsPerRun(50, func() {
		rd.Seek(0, 0)
		var err error
		dst, err = AppendValues(dst[:0], rd, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(dst) != 256 {
			t.Fatalf("parsed %d values", len(dst))
		}
	})
	// bufio.NewScanner itself may account for one small fixed allocation
	// per call; the per-line cost must be zero.
	if allocs > 1 {
		t.Errorf("AppendValues allocates %v per pass over 256 lines, want <= 1", allocs)
	}
}

// FuzzParseFloatBytes drives arbitrary bytes through both parsers: they
// must agree on success/failure and, on success, on exact bits.
func FuzzParseFloatBytes(f *testing.F) {
	for _, s := range parseCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ParseFloatBytes(data)
		want, wantErr := strconv.ParseFloat(string(data), 64)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseFloatBytes(%q) err = %v, strconv err = %v", data, gotErr, wantErr)
		}
		if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ParseFloatBytes(%q) = %#x, strconv = %#x",
				data, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// ingestPayload builds a realistic quantized-utilization ingest body.
func ingestPayload(lines int) []byte {
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < lines; i++ {
		v := float64(rng.Intn(10000)) / 100
		buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// BenchmarkParseLineString is the pre-optimization per-line parse cost:
// convert the token to a string and strconv.ParseFloat it. (The compiler
// stack-allocates this short non-escaping conversion; in the real old
// path the allocation came from Scanner.Text, whose string escapes.)
func BenchmarkParseLineString(b *testing.B) {
	line := []byte("73.125")
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := strconv.ParseFloat(string(line), 64)
		if err != nil {
			b.Fatal(err)
		}
		acc += v
	}
	sink = acc
}

// BenchmarkParseLineBytes is the optimized per-line cost: ParseFloatBytes
// straight off the byte-slice view, no conversion.
func BenchmarkParseLineBytes(b *testing.B) {
	line := []byte("73.125")
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ParseFloatBytes(line)
		if err != nil {
			b.Fatal(err)
		}
		acc += v
	}
	sink = acc
}

// BenchmarkIngestReadAll is the pre-optimization ingest path: ReadAll
// allocates the scanner buffer, a string per line and the result slice on
// every request.
func BenchmarkIngestReadAll(b *testing.B) {
	payload := ingestPayload(1024)
	rd := bytes.NewReader(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, 0)
		vs, err := ReadAll(rd)
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) != 1024 {
			b.Fatal("short read")
		}
	}
}

// BenchmarkIngestAppendValues is the optimized ingest path: reused
// scratch buffer and destination slice, byte-slice parsing.
func BenchmarkIngestAppendValues(b *testing.B) {
	payload := ingestPayload(1024)
	rd := bytes.NewReader(payload)
	scratch := make([]byte, 64*1024)
	dst := make([]float64, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Seek(0, 0)
		var err error
		dst, err = AppendValues(dst[:0], rd, scratch)
		if err != nil {
			b.Fatal(err)
		}
		if len(dst) != 1024 {
			b.Fatal("short read")
		}
	}
}

var sink float64
