package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"streamhist"
)

func TestNewGenerator(t *testing.T) {
	for _, name := range []string{"utilization", "walk", "steps", "zipf"} {
		g, err := newGenerator(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g == nil {
			t.Fatalf("%s: nil generator", name)
		}
		g.Next()
	}
	if _, err := newGenerator("bogus", 1); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestNewWindowDeltaSelection(t *testing.T) {
	fw, err := newWindow(32, 4, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Delta(); got != 0.2/8 {
		t.Errorf("default delta = %v, want eps/(2B)", got)
	}
	fw2, err := newWindow(32, 4, 0.2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if fw2.Delta() != 0.7 {
		t.Errorf("explicit delta = %v", fw2.Delta())
	}
	tw, err := newTimeWindow(32, 4, 0.2, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := tw.Delta(); got != 0.2/8 {
		t.Errorf("time window default delta = %v, want eps/(2B)", got)
	}
	tw2, err := newTimeWindow(32, 4, 0.2, 0.7, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tw2.Delta() != 0.7 {
		t.Errorf("time window explicit delta = %v", tw2.Delta())
	}
}

func TestAnswerQueries(t *testing.T) {
	fw, err := streamhist.NewFixedWindowWithDelta(16, 2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		fw.Push(float64(i))
	}
	if err := answerQueries(fw, "0:7, 8:15"); err != nil {
		t.Errorf("valid queries rejected: %v", err)
	}
	for _, bad := range []string{"x", "5", "3:99", "7:3", "-1:4"} {
		if err := answerQueries(fw, bad); err == nil {
			t.Errorf("query %q accepted", bad)
		}
	}
}

func TestParseTimestamped(t *testing.T) {
	ts, v, err := parseTimestamped("1700000000 42.5")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Unix() != 1700000000 || v != 42.5 {
		t.Errorf("parsed %v %v", ts, v)
	}
	if _, _, err := parseTimestamped("1700000000,7"); err != nil {
		t.Errorf("comma-separated rejected: %v", err)
	}
	for _, bad := range []string{"", "1", "a b", "1 b", "1 2 3"} {
		if _, _, err := parseTimestamped(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunTimeWindow(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&in, "%d %d\n", 1000+i, i)
	}
	if err := runTimeWindow(strings.NewReader(in.String()), 200, 4, 0.5, 0.5, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := runTimeWindow(strings.NewReader("bad\n"), 10, 2, 0.5, 0.5, time.Second); err == nil {
		t.Error("malformed input accepted")
	}
	if err := runTimeWindow(strings.NewReader(""), 10, 2, 0.5, 0.5, time.Second); err == nil {
		t.Error("empty input accepted")
	}
	// Out-of-order timestamps rejected.
	if err := runTimeWindow(strings.NewReader("10 1\n5 2\n"), 10, 2, 0.5, 0.5, time.Minute); err == nil {
		t.Error("out-of-order input accepted")
	}
}
