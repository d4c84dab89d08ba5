package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"streamhist/internal/core"
	"streamhist/internal/shard"
)

func TestScriptIsByteIdenticalPerSeed(t *testing.T) {
	for _, name := range []string{"ingest", "dashboard"} {
		w := workloads[name]
		a, err := BuildScript(w, 7, 2, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildScript(w, 7, 2, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: two scripts of seed 7 differ", name)
		}
		for c := range a.Measured {
			for i := range a.Measured[c] {
				if !bytes.Equal(a.Measured[c][i].Body, b.Measured[c][i].Body) {
					t.Fatalf("%s: client %d request %d bodies differ", name, c, i)
				}
			}
		}
		other, err := BuildScript(w, 8, 2, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest() == a.Digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
	}
}

func TestScriptShape(t *testing.T) {
	s, err := BuildScript(workloads["ingest"], 1, 2, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int]int{}
	seen := map[int]int64{}
	for c := range s.Measured {
		if len(s.Measured[c]) == 0 || len(s.Readback[c]) == 0 {
			t.Fatalf("client %d has an empty phase", c)
		}
		for _, phase := range [][]Op{s.Measured[c], s.Readback[c]} {
			for _, op := range phase {
				if o, ok := owner[op.Stream]; ok && o != c {
					t.Fatalf("stream %d is written by clients %d and %d", op.Stream, o, c)
				}
				owner[op.Stream] = c
				if shardOf(streamKey(op.Stream), 2) != 0 {
					t.Fatalf("stream %d is not on shard 0", op.Stream)
				}
				if op.Kind != opIngest {
					continue
				}
				if seen[op.Stream] == 0 {
					seen[op.Stream] = 256
				}
				seen[op.Stream] += int64(len(op.Values))
				if op.Seen != seen[op.Stream] {
					t.Fatalf("stream %d: op expects seen %d, running count %d", op.Stream, op.Seen, seen[op.Stream])
				}
			}
		}
	}
	for _, op := range s.Measured[0] {
		if len(op.Values) != 256 {
			t.Fatalf("measured ingest batch of %d points, want 256", len(op.Values))
		}
	}
	for i, win := range s.Final {
		if len(win) != 256 {
			t.Fatalf("stream %d: final window of %d points", i, len(win))
		}
		if want := expectedSeen(s, i); seen[i] != 0 && seen[i] != want {
			t.Fatalf("stream %d: expectedSeen %d, ops say %d", i, want, seen[i])
		}
	}
}

// TestShardOfMatchesEngine pins shardOf, the script's copy of the key
// routing, to the engine's own ShardFor for every set-up key.
func TestShardOfMatchesEngine(t *testing.T) {
	factory := func(string) (*shard.State, error) {
		fw, err := core.NewWithDelta(64, 4, 0.1, 0.1)
		if err != nil {
			return nil, err
		}
		return shard.NewState(fw)
	}
	for _, n := range []int{1, 2, 3, 4} {
		e, err := shard.NewEngine(shard.Config{Shards: n, Factory: factory})
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"default"}
		for i := 0; i < numStreams; i++ {
			keys = append(keys, streamKey(i))
		}
		for _, k := range keys {
			if got, want := shardOf(k, n), e.ShardFor(k); got != want {
				t.Errorf("%d shards: shardOf(%q) = %d, the engine routes it to %d", n, k, got, want)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckRouting feeds checkRouting /readyz bodies with the script's
// partition and with others.
func TestCheckRouting(t *testing.T) {
	s, err := BuildScript(workloads["dashboard"], 1, 1, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 2)
	want[shardOf("default", 2)]++
	for i := range s.Init {
		want[shardOf(streamKey(i), 2)]++
	}
	readyz := func(counts ...int) call {
		return func(method, path string, body []byte, out any) error {
			if path != "/readyz" {
				t.Fatalf("checkRouting asked for %s %s", method, path)
			}
			var shards []map[string]int
			for i, n := range counts {
				shards = append(shards, map[string]int{"id": i, "streams": n})
			}
			data, err := json.Marshal(map[string]any{"ready": true, "shards": shards})
			if err != nil {
				return err
			}
			return json.Unmarshal(data, out)
		}
	}
	if err := checkRouting(readyz(want...), s); err != nil {
		t.Errorf("the script's own partition: %v", err)
	}
	for _, counts := range [][]int{
		{want[0] - 1, want[1] + 1}, // one key routed elsewhere
		{want[0] + want[1]},        // one shard
		{want[0], want[1], 0},      // three shards
	} {
		if err := checkRouting(readyz(counts...), s); err == nil {
			t.Errorf("shard stream counts %v (script %v) passed", counts, want)
		}
	}
}
