package stream

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReader feeds arbitrary bytes through the stream parser: it must
// never panic, every value it accepts is finite, and writing the values
// back out and re-parsing must be lossless.
func FuzzReader(f *testing.F) {
	f.Add([]byte("1\n2.5\n-3e4\n"))
	f.Add([]byte("# comment\n\n7\n"))
	f.Add([]byte("not a number"))
	f.Add([]byte(""))
	f.Add([]byte("1e309\n")) // overflows float64
	f.Add([]byte("1\nNaN\n-Inf\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		values, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parser accepted non-finite %v from %q", v, data)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, values); err != nil {
			t.Fatalf("Write failed on parsed values: %v", err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v (wrote %q)", err, buf.String())
		}
		if len(again) != len(values) {
			t.Fatalf("roundtrip length %d != %d", len(again), len(values))
		}
		for i := range values {
			if again[i] != values[i] {
				t.Fatalf("roundtrip[%d] = %v, want %v", i, again[i], values[i])
			}
		}
	})
}

// FuzzReaderLineNumbers checks that parse errors always carry a line
// number and never panic.
func FuzzReaderLineNumbers(f *testing.F) {
	f.Add("1\nx\n")
	f.Fuzz(func(t *testing.T, s string) {
		r := NewReader(strings.NewReader(s))
		for i := 0; i < 10000; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}
