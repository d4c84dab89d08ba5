package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"streamhist/internal/datagen"
)

// opKind is the request class of one scripted operation.
type opKind uint8

const (
	opIngest opKind = iota
	opQuery
)

// Op is one scripted request.
type Op struct {
	Kind   opKind
	Stream int
	Body   []byte    // ingest: one value per line
	Values []float64 // ingest: the values Body encodes
	Seen   int64     // ingest: the stream position the ack must report
	Lo, Hi int       // query: window positions
}

// Script is the seeded, fixed-work request script of one run. The same
// (workload, seed, seconds, window) always yields byte-identical
// requests.
type Script struct {
	Workload Workload
	Seed     int64
	Window   int
	Shards   int
	// Init holds each stream's initial window (restored or recovered by
	// set-up); Final each stream's window after every scripted write.
	Init  [][]float64
	Final [][]float64
	// Measured and Readback hold each client's requests in order.
	Measured [clients][]Op
	Readback [clients][]Op
	// Written lists the streams the script writes, in first-write order.
	Written []int
	// Queried lists the streams the script queries.
	Queried []int
}

// streamKey names stream i on the wire.
func streamKey(i int) string { return fmt.Sprintf("bench-%03d", i) }

// mix derives a per-purpose seed from the run seed (splitmix64).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// encodeValues renders values as the daemon's text ingest body.
func encodeValues(vs []float64) []byte {
	out := make([]byte, 0, 5*len(vs))
	for _, v := range vs {
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
		out = append(out, '\n')
	}
	return out
}

// BuildScript generates the run's script. window is the daemon's window
// capacity and shards its shard count; seconds sizes the fixed work
// through the workload's rates.
func BuildScript(w Workload, seed int64, seconds, window, shards int) (*Script, error) {
	if seconds < 1 || window < 2 {
		return nil, fmt.Errorf("script: need seconds >= 1 and window >= 2, got %d, %d", seconds, window)
	}
	s := &Script{Workload: w, Seed: seed, Window: window, Shards: shards}
	gens := make([]*datagen.Utilization, numStreams)
	s.Init = make([][]float64, numStreams)
	s.Final = make([][]float64, numStreams)
	seen := make([]int64, numStreams)
	for i := range gens {
		gens[i] = datagen.NewUtilization(datagen.UtilizationConfig{Seed: mix(seed, uint64(i)+1), Quantize: true})
		s.Init[i] = datagen.Series(gens[i], window)
		s.Final[i] = append([]float64(nil), s.Init[i]...)
		seen[i] = int64(window)
	}
	rng := rand.New(rand.NewSource(mix(seed, 1<<20)))
	perm := rng.Perm(numStreams)
	written := make(map[int]bool)
	write := func(stream, n int) Op {
		vs := datagen.Series(gens[stream], n)
		seen[stream] += int64(n)
		s.Final[stream] = append(s.Final[stream], vs...)
		if !written[stream] {
			written[stream] = true
			s.Written = append(s.Written, stream)
		}
		return Op{Kind: opIngest, Stream: stream, Body: encodeValues(vs), Values: vs, Seen: seen[stream]}
	}
	queried := make(map[int]bool)
	query := func(stream int) Op {
		if !queried[stream] {
			queried[stream] = true
			s.Queried = append(s.Queried, stream)
		}
		lo := rng.Intn(window)
		hi := lo + rng.Intn(window-lo)
		return Op{Kind: opQuery, Stream: stream, Lo: lo, Hi: hi}
	}
	// The clients write and read only streams that live on the daemon's
	// shard 0, dealt out in turn: their requests meet on one shard loop, so
	// group commit batches them and each can wait on the other's work,
	// while the other core serves HTTP, the generator, GC and checkpoints.
	// Which requests meet is then fixed by the script rather than by how
	// the seed's streams hash, and the bottleneck loop never competes for
	// its core. A stream is only ever written by its owner, so its state
	// after each request is fixed by the script whatever the interleaving
	// of the clients.
	owned := [clients][]int{}
	n := 0
	for _, st := range perm {
		if shardOf(streamKey(st), shards) == 0 {
			owned[n%clients] = append(owned[n%clients], st)
			n++
		}
	}
	for c := range owned {
		if len(owned[c]) < hotPerClient {
			return nil, fmt.Errorf("script: client %d owns %d streams, fewer than %d hot ones", c, len(owned[c]), hotPerClient)
		}
	}
	per := int(math.Round(w.Rate * float64(seconds)))
	for c := 0; c < clients; c++ {
		mine := owned[c]
		hot := append([]int(nil), mine[:hotPerClient]...)
		next := hotPerClient
		if w.BulkBatch > 1 {
			batches := make(map[int]int)
			for j := 0; j < per; j++ {
				slot := j % hotPerClient
				st := hot[slot]
				s.Measured[c] = append(s.Measured[c], write(st, w.BulkBatch))
				if batches[st]++; batches[st] == retireBatches {
					// Retire the stream; past the last owned stream the
					// rotation wraps and streams age a second round.
					batches[st] = 0
					hot[slot] = mine[next%len(mine)]
					next++
				}
			}
			rb := int(math.Round(w.ReadbackRate * float64(seconds)))
			for j := 0; j < rb; j++ {
				st := hot[j%hotPerClient]
				s.Readback[c] = append(s.Readback[c], write(st, 1), query(st))
			}
			continue
		}
		for j := 0; j < per; j++ {
			st := hot[rng.Intn(hotPerClient)]
			s.Measured[c] = append(s.Measured[c], write(st, 1), query(st))
		}
	}
	for i := range s.Final {
		s.Final[i] = s.Final[i][len(s.Final[i])-window:]
	}
	return s, nil
}

// shardOf routes a key the way shard.Engine.ShardFor does: FNV-1a over
// the key, modulo the shard count. TestShardOfMatchesEngine pins it to
// the engine, and every run checks the server's /readyz stream counts
// against it (checkRouting).
func shardOf(key string, shards int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// Digest hashes every request of the script (keys, bodies, expected
// positions, query ranges) and the initial windows.
func (s *Script) Digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(uint64(s.Shards))
	for _, win := range s.Init {
		for _, v := range win {
			put(math.Float64bits(v))
		}
	}
	for _, phase := range [][clients][]Op{s.Measured, s.Readback} {
		for c := range phase {
			put(uint64(len(phase[c])))
			for _, op := range phase[c] {
				put(uint64(op.Kind))
				_, _ = h.Write([]byte(streamKey(op.Stream)))
				_, _ = h.Write(op.Body)
				put(uint64(op.Seen))
				put(uint64(op.Lo))
				put(uint64(op.Hi))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
