package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamhist/internal/core"
	"streamhist/internal/stream"
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

// loggedAt waits up to 2 s for the shard loop to have logged key's
// stream up to position want.
func loggedAt(t *testing.T, e *Engine, key string, want int64) {
	t.Helper()
	sh := e.shardFor(key)
	for deadline := time.Now().Add(2 * time.Second); ; {
		sh.mu.RLock()
		got := sh.streams[key].logged
		sh.mu.RUnlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s logged at %d after 2s, want %d", key, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestViewLocksOneStream: a reader parked inside View("a") holds a's
// lock only. A read of, a write to, a listing of and the health of
// another stream on the same shard all go through, even once the loop
// has acknowledged an ingest to a, while a second reader of a and that
// ingest's drain wait for the first reader to finish.
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

	// The loop logs and queues an ingest to a without a's lock; only the
	// ingest's drain waits for the reader.
	aDone := make(chan error, 1)
	go func() {
		seen, _, err := e.Ingest("a", 0, []float64{4})
		if err == nil && seen != 4 {
			err = fmt.Errorf("seen=%d, want 4", seen)
		}
		aDone <- err
	}()
	loggedAt(t, e, "a", 4)
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
	for _, done := range []chan error{first, second, aDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal(`a View("a") or Ingest("a") did not return after the release`)
		}
	}
}

// TestBusyStreamDoesNotStallShard: while a's lock is held, by an ingest's
// drain parked at the ingest.drain failpoint or by a parked View("a")
// callback, a second ingest, a delete and a restore of a each leave the
// shard serving: an ingest to and a read of b on the same shard return,
// because the loop, Delete and Restore reach a only through its queue
// lock. After the release every acknowledgment of a arrives and a's
// summaries agree with its position.
func TestBusyStreamDoesNotStallShard(t *testing.T) {
	for _, hold := range []string{"drain", "view"} {
		for _, op := range []string{"ingest", "delete", "restore"} {
			t.Run(hold+"/"+op, func(t *testing.T) { busyStreamCase(t, hold, op) })
		}
	}
}

func busyStreamCase(t *testing.T, hold, op string) {
	e := testEngine(t, Config{Shards: 1})
	for _, key := range []string{"a", "b", "c"} {
		if _, _, err := e.Ingest(key, 0, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	var snap []byte // a's window at position 3, for the restore
	if err := e.View("a", func(st *State) (err error) {
		snap, err = st.FW.MarshalBinary()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	inLoop, resume := make(chan struct{}), make(chan struct{})
	var releaseOnce, resumeOnce sync.Once
	// Runs before the engine's Close, so a failed check still lets
	// everything parked on a's lock finish.
	t.Cleanup(func() {
		resumeOnce.Do(func() { close(resume) })
		releaseOnce.Do(func() { close(release) })
	})
	var holdArmed, loopArmed atomic.Bool
	e.SetFailpoint(func(point string) {
		switch {
		case point == "ingest.drain" && holdArmed.CompareAndSwap(true, false):
			close(held)
			<-release
		case point == "ingest.apply" && loopArmed.CompareAndSwap(true, false):
			close(inLoop)
			<-resume
		}
	})
	type ack struct {
		seen, want int64
		err        error
	}
	acks := make(chan ack, 2)
	ingestA := func(vs []float64, want int64) {
		seen, _, err := e.Ingest("a", 0, vs)
		acks <- ack{seen, want, err}
	}
	waitFor := func(what string, ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not happen within 2s", what)
		}
	}

	pos := int64(3) // a's position once everything acknowledged is drained
	switch hold {
	case "drain":
		holdArmed.Store(true)
		go ingestA([]float64{4, 5, 6}, 6)
		pos = 6
	case "view":
		go func() {
			_ = e.View("a", func(*State) error {
				close(held)
				<-release
				return nil
			})
		}()
	}
	waitFor("a's lock being taken", held)

	switch op {
	case "ingest":
		// Park the loop on c's ingest, queue the second ingest of a
		// behind it, then let the loop go: a's request reaches the loop
		// before b's does.
		loopArmed.Store(true)
		go func() { _, _, _ = e.Ingest("c", 0, []float64{4}) }()
		waitFor("the loop parking on c's ingest", inLoop)
		pos += 3
		go ingestA([]float64{7, 8, 9}, pos)
		sh := e.shardFor("a")
		for deadline := time.Now().Add(2 * time.Second); len(sh.mailbox) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the second ingest of a never reached the mailbox")
			}
		}
		resumeOnce.Do(func() { close(resume) })
	case "delete":
		within(t, "delete of a", func() {
			if err := e.Delete("a", 0); err != nil {
				t.Errorf("delete of a: %v", err)
			}
		})
	case "restore":
		within(t, "restore of a", func() {
			if seen, _, err := e.Restore("a", snap); err != nil || seen != 3 {
				t.Errorf("restore of a: seen=%d err=%v, want seen=3", seen, err)
			}
		})
		pos = 3
	}
	within(t, `Ingest("b")`, func() {
		if seen, _, err := e.Ingest("b", 0, []float64{4}); err != nil || seen != 4 {
			t.Errorf(`Ingest("b"): seen=%d err=%v, want seen=4`, seen, err)
		}
	})
	within(t, `View("b")`, func() {
		if err := e.View("b", func(st *State) error {
			if st.FW.Seen() != 4 || st.Agg.N() != 4 {
				t.Errorf("b seen = %d, agglom n = %d, want 4 and 4", st.FW.Seen(), st.Agg.N())
			}
			return nil
		}); err != nil {
			t.Errorf(`View("b"): %v`, err)
		}
	})

	releaseOnce.Do(func() { close(release) })
	want := 0
	if hold == "drain" {
		want++
	}
	if op == "ingest" {
		want++
	}
	for i := 0; i < want; i++ {
		select {
		case a := <-acks:
			if a.err != nil || a.seen != a.want {
				t.Errorf(`Ingest("a"): seen=%d err=%v, want seen=%d`, a.seen, a.err, a.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal(`an Ingest("a") did not return after the release`)
		}
	}
	err := e.View("a", func(st *State) error {
		aux := pos
		if op == "restore" {
			aux = 0 // the restored stream's auxiliaries restart empty
		}
		if st.FW.Seen() != pos || int64(st.Agg.N()) != aux || int64(st.GK.N()) != aux || st.Stats.N != aux {
			t.Errorf("a: seen=%d agglom n=%d gk n=%d stats n=%d, want seen %d and %d in each auxiliary",
				st.FW.Seen(), st.Agg.N(), st.GK.N(), st.Stats.N, pos, aux)
		}
		return nil
	})
	if op == "delete" {
		if !errors.Is(err, ErrUnknownStream) {
			t.Fatalf(`View("a") after its delete: err = %v, want ErrUnknownStream`, err)
		}
	} else if err != nil {
		t.Fatal(err)
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
	cfg := Config{Shards: 1, DataDir: t.TempDir(), Factory: testFactory(t), AuditInterval: 16}
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

// TestDrainRunsOffTheLoop: an ingest's auxiliaries absorb its batch on
// the ingest's own goroutine, under the stream's lock and not the
// shard's. With stream a's drain parked at the "ingest.drain" failpoint,
// an ingest to b on the same shard is acknowledged, and a read of b and a
// listing return, while a's acknowledgment waits. After the release a's
// acknowledgment arrives with every summary of a caught up.
func TestDrainRunsOffTheLoop(t *testing.T) {
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
	// parked ingest finish.
	t.Cleanup(unpark)
	// The first drain to reach the point is a's, the only ingest in
	// flight; later drains (b's) pass straight through.
	var armed atomic.Bool
	armed.Store(true)
	e.SetFailpoint(func(point string) {
		if point == "ingest.drain" && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	})
	type ack struct {
		seen int64
		err  error
	}
	aDone := make(chan ack, 1)
	go func() {
		seen, _, err := e.Ingest("a", 0, []float64{4, 5, 6})
		aDone <- ack{seen, err}
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal(`Ingest("a") never reached the ingest.drain failpoint`)
	}

	within(t, `Ingest("b")`, func() {
		if seen, _, err := e.Ingest("b", 0, []float64{4}); err != nil || seen != 4 {
			t.Errorf(`Ingest("b"): seen=%d err=%v, want seen=4`, seen, err)
		}
	})
	within(t, `View("b")`, func() {
		if err := e.View("b", func(st *State) error {
			if st.FW.Seen() != 4 || st.Agg.N() != 4 {
				t.Errorf("b seen = %d, agglom n = %d, want 4 and 4", st.FW.Seen(), st.Agg.N())
			}
			return nil
		}); err != nil {
			t.Errorf(`View("b"): %v`, err)
		}
	})
	within(t, "Keys", func() {
		if got := e.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Errorf("Keys = %v, want [a b]", got)
		}
	})
	select {
	case got := <-aDone:
		t.Fatalf(`Ingest("a") returned %+v while its drain was parked`, got)
	default:
	}

	unpark()
	select {
	case got := <-aDone:
		if got.err != nil || got.seen != 6 {
			t.Fatalf(`Ingest("a"): seen=%d err=%v, want seen=6`, got.seen, got.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal(`Ingest("a") did not return after the release`)
	}
	// Read a's state directly, not through View (which drains first): the
	// acknowledgment itself must leave every summary caught up.
	st := e.shardFor("a").lookup("a")
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, gk, seen := st.Agg.N(), st.GK.N(), st.FW.Seen(); int64(n) != seen || int64(gk) != seen || st.Stats.N != seen {
		t.Fatalf("after a's ack: agglom n=%d, gk n=%d, stats n=%d, want all %d", n, gk, st.Stats.N, seen)
	}
}

// TestAuditRunsOffTheLoop: a due audit pass runs in its ingest's drain,
// under its stream's lock and not the shard's. With stream a's pass
// parked at the "ingest.audit" failpoint, an ingest to and a read of b on
// the same shard return. QualitySnapshot waits for a's lock to read a's
// auditor, but only after it has let go of the shard's lock, so b's
// ingest and read still return while the snapshot waits. After the
// release a's acknowledgment and the snapshot both arrive, with a's pass
// in the snapshot.
func TestAuditRunsOffTheLoop(t *testing.T) {
	e := testEngine(t, Config{Shards: 1, AuditInterval: 8})
	for _, key := range []string{"a", "b"} {
		if _, _, err := e.Ingest(key, 0, []float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	// Runs before the engine's Close, so a failed check still lets the
	// parked ingest, and the snapshot behind it, finish.
	t.Cleanup(unpark)
	var armed atomic.Bool
	armed.Store(true)
	e.SetFailpoint(func(point string) {
		if point == "ingest.audit" && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	})
	aDone := make(chan error, 1)
	go func() {
		_, _, err := e.Ingest("a", 0, []float64{5, 6, 7, 8}) // a's 8th point: a pass is due
		aDone <- err
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal(`Ingest("a") never reached the ingest.audit failpoint`)
	}

	otherStream := func(want int64) {
		within(t, `Ingest("b")`, func() {
			if seen, _, err := e.Ingest("b", 0, []float64{5}); err != nil || seen != want {
				t.Errorf(`Ingest("b"): seen=%d err=%v, want seen=%d`, seen, err, want)
			}
		})
		within(t, `View("b")`, func() {
			if got := e.Seen("b"); got != want {
				t.Errorf("b seen = %d, want %d", got, want)
			}
		})
	}
	otherStream(5)

	snapDone := make(chan []StreamQuality, 1)
	go func() { snapDone <- e.QualitySnapshot() }()
	select {
	case snap := <-snapDone:
		t.Fatalf("QualitySnapshot returned %+v while a's pass held a's lock", snap)
	case <-time.After(50 * time.Millisecond):
	}
	otherStream(6)
	select {
	case err := <-aDone:
		t.Fatalf(`Ingest("a") returned (err=%v) while its audit pass was parked`, err)
	default:
	}

	unpark()
	for _, wait := range []func() bool{
		func() bool {
			select {
			case err := <-aDone:
				if err != nil {
					t.Fatalf(`Ingest("a"): %v`, err)
				}
				return true
			case <-time.After(2 * time.Second):
				return false
			}
		},
		func() bool {
			select {
			case snap := <-snapDone:
				if len(snap) != 2 || snap[0].Stream != "a" || snap[0].Status.Audits != 1 || snap[1].Status.Audits != 0 {
					t.Fatalf("QualitySnapshot = %+v, want a with its one pass and b with none", snap)
				}
				return true
			case <-time.After(2 * time.Second):
				return false
			}
		},
	} {
		if !wait() {
			t.Fatal("the audit pass's ingest or the snapshot did not return after the release")
		}
	}
}

// TestDrainPanicQuarantines: a panic while an ingest drains its batch
// into the auxiliaries quarantines the shard and fails that ingest with
// ErrQuarantined; the stream's lock is released, so reads of it and of
// another stream still answer while mutations are refused.
func TestDrainPanicQuarantines(t *testing.T) {
	e := testEngine(t, Config{Shards: 1})
	for _, key := range []string{"a", "b"} {
		if _, _, err := e.Ingest(key, 0, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	e.SetFailpoint(func(point string) {
		if point == "ingest.drain" {
			panic("drain boom")
		}
	})
	if _, _, err := e.Ingest("a", 0, []float64{4}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ingest whose drain panicked: err = %v, want ErrQuarantined", err)
	}
	e.SetFailpoint(nil)
	if !e.QuarantinedFor("a") {
		t.Fatal("a panic while draining did not quarantine the shard")
	}
	for key, want := range map[string]int64{"a": 4, "b": 3} {
		within(t, fmt.Sprintf("View(%q) after the panic", key), func() {
			if got := e.Seen(key); got != want {
				t.Errorf("%s seen = %d, want %d", key, got, want)
			}
		})
	}
	if _, _, err := e.Ingest("b", 0, []float64{1}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("ingest on a quarantined shard: err = %v, want ErrQuarantined", err)
	}
}

// TestDrainReleasesOutsizedBuffer: the copy of a batch longer than the
// stream's window does not stay with the stream once drained, while a
// batch that fits leaves its buffer for reuse.
func TestDrainReleasesOutsizedBuffer(t *testing.T) {
	e := testEngine(t, Config{Shards: 1})
	pendingCap := func() int {
		st := e.shardFor("a").lookup("a")
		st.mu.Lock()
		defer st.mu.Unlock()
		return cap(st.pending)
	}
	if _, _, err := e.Ingest("a", 0, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if got := pendingCap(); got < 8 {
		t.Errorf("after an 8-point batch the buffer holds %d values, want it kept for reuse", got)
	}
	if _, _, err := e.Ingest("a", 0, make([]float64, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := pendingCap(); got > 32 {
		t.Errorf("after a 1000-point batch into a 32-point window the buffer still holds %d values", got)
	}
}

// auxAnswers is what a stream's auxiliaries answer: the agglomerative
// summary's snapshot bytes, GK quantiles and the running stats.
type auxAnswers struct {
	seen      int64
	agg       []byte
	quantiles [3]float64
	stats     stream.Counter
}

// captureAux reads every live stream's auxiliaries through View.
func captureAux(t *testing.T, e *Engine) map[string]auxAnswers {
	t.Helper()
	out := map[string]auxAnswers{}
	for _, key := range e.Keys() {
		if err := e.View(key, func(st *State) error {
			var a auxAnswers
			var err error
			a.seen, a.stats = st.FW.Seen(), st.Stats
			if a.agg, err = st.Agg.MarshalBinary(); err != nil {
				return err
			}
			for i, phi := range []float64{0.01, 0.5, 0.99} {
				if a.quantiles[i], err = st.GK.Query(phi); err != nil {
					return err
				}
			}
			out[key] = a
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	return out
}

// TestConcurrentDrainsMatchReplay: the auxiliaries absorb values in WAL
// order however the drains interleave. Writers ingest into one stream at
// once while readers View it (each View drains too) and churners delete
// and re-create other streams. Recovery with no checkpoint replays the
// whole WAL into fresh auxiliaries, and every stream's agglomerative
// snapshot, GK answers and running stats must come back bit for bit.
func TestConcurrentDrainsMatchReplay(t *testing.T) {
	cfg := Config{Shards: 1, DataDir: t.TempDir(), Factory: testFactory(t)}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := 60
	if testing.Short() {
		batches = 20
	}
	const writers, churners = 4, 2
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for b := 0; b < batches; b++ {
				vals := make([]float64, 1+rng.Intn(16))
				for j := range vals {
					vals[j] = float64(100*i) + 50*rng.Float64()
				}
				if _, _, err := e.Ingest("hot", 0, vals); err != nil {
					t.Errorf("writer %d batch %d: %v", i, b, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("churn%d", i)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for b := 0; b < batches; b++ {
				vals := make([]float64, 1+rng.Intn(8))
				for j := range vals {
					vals[j] = 1000 * rng.Float64()
				}
				if _, _, err := e.Ingest(key, 0, vals); err != nil {
					t.Errorf("%s batch %d: %v", key, b, err)
					return
				}
				if b%7 == 6 {
					if err := e.Delete(key, 0); err != nil {
						t.Errorf("%s delete %d: %v", key, b, err)
						return
					}
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, key := range []string{"hot", "hot", "churn0", "churn1"} {
		readers.Add(1)
		go func(key string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := e.View(key, func(st *State) error {
					if n, seen := st.Agg.N(), st.FW.Seen(); int64(n) != seen {
						t.Errorf("%s: View saw agglom n=%d at seen=%d", key, n, seen)
					}
					return nil
				})
				if err != nil && !errors.Is(err, ErrUnknownStream) {
					t.Errorf("%s read: %v", key, err)
				}
			}
		}(key)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		e.Abort()
		return
	}

	live := captureAux(t, e)
	if live["hot"].seen == 0 {
		t.Fatal("hot stream holds no points")
	}
	e.Abort()
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recovered := captureAux(t, e2)
	if len(recovered) != len(live) {
		t.Fatalf("recovered %d streams, want %d", len(recovered), len(live))
	}
	for key, want := range live {
		got, ok := recovered[key]
		switch {
		case !ok:
			t.Errorf("%s: not recovered", key)
		case got.seen != want.seen:
			t.Errorf("%s: recovered seen %d, want %d", key, got.seen, want.seen)
		case !bytes.Equal(got.agg, want.agg):
			t.Errorf("%s: recovered agglomerative snapshot differs from the live one", key)
		case got.quantiles != want.quantiles:
			t.Errorf("%s: recovered GK quantiles %v, want %v", key, got.quantiles, want.quantiles)
		case got.stats != want.stats:
			t.Errorf("%s: recovered stats %+v, want %+v", key, got.stats, want.stats)
		}
	}
}
