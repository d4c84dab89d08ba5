package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/quality"
)

// within runs fn on its own goroutine and fails the test unless fn
// returns within 2 s.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2s", what)
	}
}

// TestViewLocksOneStream: a reader parked inside View("a") holds a's
// lock only. A read of, a write to, a listing of and the health of
// another stream on the same shard all go through, while a second reader
// of a waits for the first to finish.
func TestViewLocksOneStream(t *testing.T) {
	e := testEngine(t, Config{Shards: 1})
	for _, key := range []string{"a", "b"} {
		if _, _, err := e.Ingest(key, 0, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	// Runs before the engine's Close, so a failed check still lets the
	// parked reader, and everything queued behind it, finish.
	t.Cleanup(unpark)
	first := make(chan error, 1)
	go func() {
		first <- e.View("a", func(*State) error {
			close(parked)
			<-release
			return nil
		})
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal(`View("a") never ran its callback`)
	}

	// Nothing writes to a before these checks: an ingest to a would park
	// the loop on a's lock while it holds the shard's write lock.
	within(t, `View("b")`, func() {
		if err := e.View("b", func(st *State) error {
			if st.FW.Seen() != 3 {
				t.Errorf("b seen = %d, want 3", st.FW.Seen())
			}
			return nil
		}); err != nil {
			t.Errorf(`View("b"): %v`, err)
		}
	})
	within(t, `Ingest("b")`, func() {
		if seen, _, err := e.Ingest("b", 0, []float64{4}); err != nil || seen != 4 {
			t.Errorf(`Ingest("b"): seen=%d err=%v, want seen=4`, seen, err)
		}
	})
	within(t, "Keys", func() {
		if got := e.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Errorf("Keys = %v, want [a b]", got)
		}
	})
	within(t, "ShardStatuses", func() {
		if got := e.ShardStatuses(); len(got) != 1 || got[0].Streams != 2 {
			t.Errorf("ShardStatuses = %+v, want one shard with 2 streams", got)
		}
	})

	// The lock is per stream, not gone: a second reader of a waits.
	ran := make(chan struct{})
	second := make(chan error, 1)
	go func() {
		second <- e.View("a", func(*State) error {
			close(ran)
			return nil
		})
	}()
	select {
	case <-ran:
		t.Fatal(`a second View("a") ran while the first still held a's lock`)
	case <-time.After(50 * time.Millisecond):
	}
	unpark()
	for _, done := range []chan error{first, second} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal(`a View("a") did not return after the release`)
		}
	}
}

// TestViewPanicQuarantines: a panic inside a View callback surfaces as
// *LockedPanic, quarantines the shard and releases the stream's lock, so
// later reads of that stream and of another stream still answer while
// mutations are refused.
func TestViewPanicQuarantines(t *testing.T) {
	e := testEngine(t, Config{Shards: 1})
	want := map[string]int64{"a": 3, "b": 2}
	for key, n := range want {
		if _, _, err := e.Ingest(key, 0, make([]float64, n)); err != nil {
			t.Fatal(err)
		}
	}
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.View("a", func(*State) error { panic("view boom") })
	}()
	if lp, ok := got.(*LockedPanic); !ok || lp.Val != "view boom" {
		t.Fatalf("View panic surfaced as %#v, want *LockedPanic wrapping %q", got, "view boom")
	}
	if !e.QuarantinedFor("a") {
		t.Fatal("a panic under a stream lock did not quarantine the shard")
	}
	for _, key := range []string{"a", "b"} {
		within(t, fmt.Sprintf("View(%q) after the panic", key), func() {
			if got := e.Seen(key); got != want[key] {
				t.Errorf("%s seen = %d, want %d", key, got, want[key])
			}
		})
	}
	if _, _, err := e.Ingest("b", 0, []float64{1}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ingest on a quarantined shard: err = %v, want ErrQuarantined", err)
	}
}

// TestStreamLocksStress drives a durable, audited one-shard engine from
// many goroutines at once: writers ingest into four streams while
// readers flush, snapshot and audit them, checkpoints run in a loop, one
// stream is deleted and recreated and another restored from its own
// snapshot. Every read must see a whole window and a snapshot that
// decodes; after a crash, the streams that were only written and read
// must recover every acknowledged point.
func TestStreamLocksStress(t *testing.T) {
	cfg := Config{Shards: 1, DataDir: t.TempDir(), Factory: testFactory(t),
		Audit: &quality.Config{Interval: 16, Shadow: 64, Reservoir: 32, MinShadow: 8}}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := 150
	if testing.Short() {
		batches = 40
	}
	plain := []string{"w0", "w1", "w2", "w3"}
	acked := make([]int64, len(plain)) // element i written only by writer i

	var writers sync.WaitGroup
	for i, key := range plain {
		writers.Add(1)
		go func(i int, key string) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for b := 0; b < batches; b++ {
				vals := make([]float64, 1+rng.Intn(8))
				for j := range vals {
					vals[j] = 100 * rng.Float64()
				}
				seen, degraded, err := e.Ingest(key, 0, vals)
				if err != nil || degraded || seen != acked[i]+int64(len(vals)) {
					t.Errorf("%s batch %d: seen=%d degraded=%v err=%v, want seen=%d",
						key, b, seen, degraded, err, acked[i]+int64(len(vals)))
					return
				}
				acked[i] = seen
			}
		}(i, key)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for b := 0; b < batches/5; b++ {
			if seen, _, err := e.Ingest("churn", 0, []float64{1, 2, 3}); err != nil || seen != 3 {
				t.Errorf("churn create %d: seen=%d err=%v, want seen=3", b, seen, err)
				return
			}
			if err := e.Delete("churn", 0); err != nil {
				t.Errorf("churn delete %d: %v", b, err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for b := 0; b < batches/5; b++ {
			seen, _, err := e.Ingest("restored", 0, []float64{float64(b), 7})
			if err != nil {
				t.Errorf("restored ingest %d: %v", b, err)
				return
			}
			var blob []byte
			if err := e.View("restored", func(st *State) error {
				blob, err = st.FW.MarshalBinary()
				return err
			}); err != nil {
				t.Errorf("restored snapshot %d: %v", b, err)
				return
			}
			if got, _, err := e.Restore("restored", blob); err != nil || got != seen {
				t.Errorf("restore %d: seen=%d err=%v, want seen=%d", b, got, err, seen)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	for _, key := range append([]string{"churn", "restored"}, plain...) {
		bg.Add(1)
		go func(key string) {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := e.View(key, func(st *State) error {
					n, seen := st.FW.Len(), st.FW.Seen()
					if want := min(seen, int64(st.FW.Capacity())); int64(n) != want {
						t.Errorf("%s: window holds %d points at seen=%d, want %d", key, n, seen, want)
					}
					if n > 0 {
						if _, err := st.FW.Histogram(); err != nil {
							return err
						}
					}
					blob, err := st.FW.MarshalBinary()
					if err != nil {
						return err
					}
					fw, err := core.New(32, 4, 0.1)
					if err != nil {
						return err
					}
					return fw.UnmarshalBinary(blob)
				})
				if err != nil && !errors.Is(err, ErrUnknownStream) {
					t.Errorf("%s read: %v", key, err)
				}
				if _, _, err := e.AuditStatus(key); err != nil && !errors.Is(err, ErrUnknownStream) {
					t.Errorf("%s audit status: %v", key, err)
				}
			}
		}(key)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.CheckpointAll(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			_ = e.QualitySnapshot()
		}
	}()
	writers.Wait()
	close(stop)
	bg.Wait()
	if e.Quarantined() {
		t.Fatal("stress run quarantined the shard")
	}

	e.Abort()
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for i, key := range plain {
		if got := e2.Seen(key); got != acked[i] {
			t.Errorf("%s recovered seen = %d, want the %d acknowledged points", key, got, acked[i])
		}
	}
}
