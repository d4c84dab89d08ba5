// Package stream provides text-format stream I/O: reading a data stream of
// one numeric value per line (the interchange format of cmd/datagen and
// cmd/streamhist), writing streams, and composable consumers so one pass
// over a source can feed several summaries — the library's answer to
// "stream algorithms are one pass algorithms".
package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// maxLine bounds the length of a single input line.
const maxLine = 1024 * 1024

// Reader parses a value-per-line stream. Blank lines and lines starting
// with '#' are skipped; NaN and ±Inf are rejected.
type Reader struct {
	sc   *bufio.Scanner
	line int64
	err  error
}

// NewReader wraps r. Lines up to 1 MiB are supported.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &Reader{sc: sc}
}

// Next returns the next value. It reports io.EOF after the last value and
// a parse error (with line number) on malformed or non-finite input. The hot path is
// allocation-free: lines are trimmed and parsed as byte-slice views into
// the scanner's buffer (ParseFloatBytes), never copied to strings.
func (r *Reader) Next() (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	for r.sc.Scan() {
		r.line++
		text := bytes.TrimSpace(r.sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		v, err := parseValue(text)
		if err != nil {
			r.err = fmt.Errorf("stream: line %d: %w", r.line, err)
			return 0, r.err
		}
		return v, nil
	}
	if err := r.sc.Err(); err != nil {
		r.err = fmt.Errorf("stream: %w", err)
	} else {
		r.err = io.EOF
	}
	return 0, r.err
}

// Line returns the number of lines consumed so far.
func (r *Reader) Line() int64 { return r.line }

// ReadAll drains the reader into a slice.
func ReadAll(r io.Reader) ([]float64, error) {
	sr := NewReader(r)
	var out []float64
	for {
		v, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

// Write emits values one per line.
func Write(w io.Writer, values []float64) error {
	bw := bufio.NewWriter(w)
	for _, v := range values {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Consumer receives stream values one at a time. All the library's
// summaries (FixedWindow, Agglomerative, GK, vhist builders)
// satisfy it via small adapters or directly.
type Consumer interface {
	Push(v float64)
}

// ConsumerFunc adapts a closure to Consumer.
type ConsumerFunc func(float64)

// Push invokes the closure.
func (f ConsumerFunc) Push(v float64) { f(v) }

// Tee pushes every value into all consumers, enabling single-pass
// multi-summary processing.
type Tee []Consumer

// Push fans the value out.
func (t Tee) Push(v float64) {
	for _, c := range t {
		c.Push(v)
	}
}

// Copy drains src into dst, returning the number of values copied.
func Copy(dst Consumer, src interface{ Next() (float64, error) }) (int64, error) {
	var n int64
	for {
		v, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		dst.Push(v)
		n++
	}
}

// Counter counts and aggregates simple running statistics of a stream,
// useful as a cheap Tee participant.
type Counter struct {
	N        int64
	Sum      float64
	SumSq    float64
	Min, Max float64
}

// Push records a value.
func (c *Counter) Push(v float64) {
	if c.N == 0 || v < c.Min {
		c.Min = v
	}
	if c.N == 0 || v > c.Max {
		c.Max = v
	}
	c.N++
	c.Sum += v
	c.SumSq += v * v
}

// Mean returns the running mean.
func (c *Counter) Mean() float64 {
	if c.N == 0 {
		return 0
	}
	return c.Sum / float64(c.N)
}

// Variance returns the running population variance.
func (c *Counter) Variance() float64 {
	if c.N == 0 {
		return 0
	}
	m := c.Mean()
	v := c.SumSq/float64(c.N) - m*m
	if v < 0 {
		v = 0
	}
	return v
}
