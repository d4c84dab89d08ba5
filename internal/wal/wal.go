// Package wal implements the write-ahead log that makes streamhistd's
// fixed windows durable. A sliding-window summary is exactly the state
// that cannot be recomputed after a fault — the stream is gone — so every
// acknowledged ingest batch is framed, checksummed and appended here
// before it is applied to the in-memory summaries. One log serves every
// stream of a shard: each record carries its stream's key.
//
// Layout: the log is a sequence of segment files
//
//	wal-<seq>-0000000000000000.log
//
// in a data directory, where seq orders the segments. Each segment
// begins with the 4-byte magic "SWK1" and an 8-byte segment start that,
// like the name's second field, is always zero: stream positions are per
// key and live in the records. Records follow as
//
//	uint32 payload length | uint32 CRC-32C(payload) | payload
//	payload = uint8 flags | uint16 keyLen | key |
//	          int64 per-key start | float64 values...
//
// all little-endian. flags bit 0 marks a tombstone (stream deleted; no
// values follow the start). Garbage collection works by sequence number:
// a checkpoint records the first sequence number it does NOT cover,
// replay skips wholly covered segments, and DropSealedBefore deletes
// them.
//
// Recovery tolerates exactly the damage a crash can cause: a torn or
// half-written record at the tail of the last segment, which Open
// truncates away. Corruption anywhere else means sealed, fsynced data was
// lost and is reported as an error rather than skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/trace"
)

const (
	magic     = "SWK1"
	headerLen = len(magic) + 8 // magic + an always-zero segment start
	recHdrLen = 8              // payload length + CRC
	// recFixed is the fixed payload overhead: flags, keyLen, start.
	recFixed = 1 + 2 + 8
	// MaxKeyLen bounds stream keys so a record's key length prefix cannot
	// be abused and segment scans stay cheap.
	MaxKeyLen = 256
	// maxPayload bounds a record so a corrupt length prefix cannot drive a
	// huge allocation: 1M values per batch is far beyond any HTTP ingest.
	maxPayload = recFixed + MaxKeyLen + 8*(1<<20)
	// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
	DefaultSegmentBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir is the directory holding the segments. Created if missing.
	Dir string
	// FS is the filesystem to operate through; nil means the real one.
	FS faults.FS
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEveryAppend fsyncs after each AppendBatch. When false the OS
	// decides when buffered records reach disk, and a crash may lose the
	// un-fsynced suffix of acknowledged batches.
	SyncEveryAppend bool
	// Metrics receives the log's instrumentation (appends, bytes, fsync
	// latency, segment rolls); nil disables it.
	Metrics *obs.Registry
	// Trace receives per-append and per-fsync flight-recorder events;
	// nil disables it.
	Trace *trace.Recorder
	// Keyed is ignored: every log uses the keyed record format.
	//
	// Deprecated: leave it unset.
	Keyed bool
}

// WAL is an open write-ahead log. Methods are safe for concurrent use:
// the shard loop appends while its checkpoint loop rotates and drops
// covered segments.
type WAL struct {
	mu        sync.Mutex
	dir       string
	fs        faults.FS
	segBytes  int64
	syncEvery bool

	segs    []segment // sorted by seq; last is the active one (if any)
	cur     faults.File
	curSize int64
	nextSeq uint64
	// repair is the size to truncate the active segment back to before
	// the next append, after a failed write left a torn (or un-fsyncable)
	// record at its tail; -1 means the tail is clean.
	repair int64

	// Observability (all handles nil without Options.Metrics; nil tr is
	// the disabled flight recorder).
	m  walMetrics
	tr *trace.Recorder
}

// walMetrics holds the log's instrumentation handles; the zero value (all
// nil) is the disabled state.
type walMetrics struct {
	appends  *obs.Counter // records appended
	bytes    *obs.Counter // record bytes appended (frame included)
	fsync    *obs.Track   // fsync latency on the append path
	rolls    *obs.Counter // segments created
	segments *obs.Gauge   // segments currently on disk
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	return walMetrics{
		appends:  reg.Counter("streamhist_wal_appends_total", "Batches appended to the write-ahead log."),
		bytes:    reg.Counter("streamhist_wal_append_bytes_total", "Framed bytes appended to the write-ahead log."),
		fsync:    reg.Track("streamhist_wal_fsync_seconds", "WAL fsync latency on the acknowledged-append path, in seconds."),
		rolls:    reg.Counter("streamhist_wal_segment_rolls_total", "WAL segments created (rotations plus fresh logs)."),
		segments: reg.Gauge("streamhist_wal_segments", "WAL segments currently on disk."),
	}
}

type segment struct {
	name string
	seq  uint64
}

// KeyedRecord is one durable batch (or tombstone) for one stream.
type KeyedRecord struct {
	// Key names the stream. Must be non-empty and at most MaxKeyLen bytes.
	Key string
	// Start is the stream's per-key position (points seen before this
	// batch). Zero for tombstones.
	Start int64
	// Values is the batch; nil for tombstones.
	Values []float64
	// Delete marks a tombstone: the stream was deleted at this point in
	// the log. Replay must drop the stream's accumulated state.
	Delete bool
	// Parent is the trace span the record's append event is attributed
	// to; not serialized.
	Parent trace.SpanID
}

// Open scans dir, truncates a torn tail off the last segment, and
// positions the log for appending. A missing or empty dir is a fresh log.
func Open(opts Options) (*WAL, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faults.OS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	// Sweep out segments whose header never finished writing (or is not
	// this format's). Records are only ever written after the header is
	// complete, so a bad-header file is a failed creation — garbage left
	// by a crash or full disk mid-create. It may even share a sequence
	// number with a real segment (creation failures don't consume
	// sequence numbers), which would scramble replay order if it were
	// kept. Only the header is read here: replay reads each record once.
	kept := segs[:0]
	for _, seg := range segs {
		head, err := fsys.ReadPrefix(filepath.Join(opts.Dir, seg.name), headerLen)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if len(head) == headerLen && string(head[:len(magic)]) == magic {
			kept = append(kept, seg)
			continue
		}
		if err := fsys.Remove(filepath.Join(opts.Dir, seg.name)); err != nil {
			return nil, fmt.Errorf("wal: discarding torn segment %s: %w", seg.name, err)
		}
	}
	w := &WAL{dir: opts.Dir, fs: fsys, segBytes: segBytes, syncEvery: opts.SyncEveryAppend, segs: kept, repair: -1, m: newWALMetrics(opts.Metrics), tr: opts.Trace}
	w.m.segments.Set(float64(len(kept)))
	if n := len(kept); n > 0 {
		w.nextSeq = kept[n-1].seq + 1
		if err := w.openLast(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// errBadHeader marks a segment whose header never finished writing.
var errBadHeader = errors.New("bad segment header")

// openLast validates the active segment, truncates its torn tail, and
// opens it for appending.
func (w *WAL) openLast() error {
	last := w.segs[len(w.segs)-1]
	path := filepath.Join(w.dir, last.name)
	data, err := w.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := scanSegment(data, nil)
	if err != nil {
		return fmt.Errorf("wal: segment %s: %w", last.name, err)
	}
	if valid < int64(len(data)) {
		if err := w.fs.Truncate(path, valid); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", last.name, err)
		}
	}
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.cur = f
	w.curSize = valid
	return nil
}

// SizeBytes returns the bytes the log occupies on disk: sealed segment
// sizes plus the active segment's append position. Supervision watchdogs
// compare successive readings to detect a log that keeps growing because
// the checkpoints that would truncate it keep failing.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for i, s := range w.segs {
		if i == len(w.segs)-1 && w.cur != nil {
			total += w.curSize
			continue
		}
		if fi, err := w.fs.Stat(filepath.Join(w.dir, s.name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// AppendBatch appends a group of records as one write and (when
// configured) one fsync — the shard loop's group commit. Either the whole
// batch becomes durable or none of it does: any write or sync error
// poisons the active segment back to its pre-batch size, so no record of
// a failed batch survives recovery.
func (w *WAL) AppendBatch(recs []KeyedRecord) error {
	if len(recs) == 0 {
		return nil
	}
	tstart := w.tr.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	var buf []byte
	for _, r := range recs {
		if r.Key == "" || len(r.Key) > MaxKeyLen {
			return fmt.Errorf("wal: bad stream key %q", r.Key)
		}
		buf = appendRecord(buf, r)
	}
	if w.cur == nil {
		if err := w.reopenOrCreate(); err != nil {
			return err
		}
	}
	if _, err := w.cur.Write(buf); err != nil {
		// The tail is torn. Remember the clean size so a later append can
		// truncate the tear away; until then the handle stays poisoned so
		// nothing writes past it. (If the process dies first, recovery
		// truncates the tear instead.)
		w.poison(w.curSize)
		return fmt.Errorf("wal: %w", err)
	}
	if w.syncEvery {
		fsyncStart := w.m.fsync.Start()
		trSyncStart := w.tr.Now()
		if err := w.cur.Sync(); err != nil {
			// The batch reached the file but not durably; it is not
			// acknowledged, so drop it entirely.
			w.poison(w.curSize)
			return fmt.Errorf("wal: %w", err)
		}
		w.m.fsync.ObserveSince(fsyncStart)
		if w.tr != nil {
			w.tr.Instant(trace.EvWALSync, 0, recs[0].Parent, time.Duration(w.tr.Now()-trSyncStart), 0, 0)
		}
	}
	// Only now is the batch part of the log.
	w.curSize += int64(len(buf))
	for _, r := range recs {
		w.m.appends.Inc()
		if w.tr != nil {
			recLen := int64(recHdrLen + recFixed + len(r.Key) + 8*len(r.Values))
			w.tr.Instant(trace.EvWALAppend, 0, r.Parent, time.Duration(w.tr.Now()-tstart), recLen, int64(len(r.Values)))
		}
	}
	w.m.bytes.Add(int64(len(buf)))
	if w.curSize >= w.segBytes {
		// The batch is already in the log, so a failed roll must not fail
		// it: the active segment is left closed, and the next append
		// creates its successor or fails before writing anything.
		_ = w.rotate()
	}
	return nil
}

// poison closes the active segment and schedules a truncation back to
// size — the last clean tail — before the next append.
func (w *WAL) poison(size int64) {
	w.closeCur()
	w.repair = size
}

// reopenOrCreate restores an appendable active segment: repair a torn
// tail left by a failed append, or start a fresh segment.
func (w *WAL) reopenOrCreate() error {
	if w.repair >= 0 && len(w.segs) > 0 {
		last := w.segs[len(w.segs)-1]
		path := filepath.Join(w.dir, last.name)
		if err := w.fs.Truncate(path, w.repair); err != nil {
			return fmt.Errorf("wal: repairing torn tail of %s: %w", last.name, err)
		}
		f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		w.cur, w.curSize, w.repair = f, w.repair, -1
		return nil
	}
	w.repair = -1
	return w.newSegment()
}

// Rotate seals the active segment so DropSealedBefore can later delete
// it, starting a fresh one. Rotating an empty or record-less log is a
// no-op.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.segs) == 0 || (w.cur != nil && w.curSize <= int64(headerLen)) {
		return nil
	}
	if w.repair >= 0 {
		// A torn tail awaits repair; sealing now would freeze the tear
		// into a non-last segment. Let the next append repair it first.
		return nil
	}
	return w.rotate()
}

// Reset discards every segment and starts a fresh log. Used when a
// shard's state is replaced wholesale (a restore or a re-anchor) after
// the new state has been checkpointed durably.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closeCur()
	// Remove every segment file on disk, not just the tracked ones: a
	// creation that failed and could not remove its file leaves an
	// untracked bad-header file whose name can collide with the fresh
	// log's first segment (O_EXCL), wedging the very reset that is
	// supposed to heal the log. Removal stays best-effort; a leftover the
	// sweep can't delete surfaces as a newSegment error and the caller
	// retries.
	if segs, err := listSegments(w.fs, w.dir); err == nil {
		for _, seg := range segs {
			_ = w.fs.Remove(filepath.Join(w.dir, seg.name))
		}
	} else {
		for _, seg := range w.segs {
			_ = w.fs.Remove(filepath.Join(w.dir, seg.name))
		}
	}
	w.segs = w.segs[:0]
	w.repair = -1
	return w.newSegment()
}

func (w *WAL) rotate() error {
	if w.cur != nil {
		if err := w.cur.Sync(); err != nil {
			w.closeCur()
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		w.closeCur()
	}
	return w.newSegment()
}

func (w *WAL) closeCur() {
	if w.cur != nil {
		// Best-effort: the segment was either just synced or is being
		// poisoned after a failed write; the primary error wins.
		_ = w.cur.Close()
		w.cur = nil
	}
}

// newSegment creates and opens segment nextSeq.
func (w *WAL) newSegment() error {
	name := fmt.Sprintf("wal-%016x-0000000000000000.log", w.nextSeq)
	path := filepath.Join(w.dir, name)
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	_, err = f.Write(hdr)
	if err == nil && w.syncEvery {
		if err = f.Sync(); err == nil {
			err = w.fs.SyncDir(w.dir)
		}
	}
	if err != nil {
		// The file holds no record yet. The retry reuses this sequence
		// number and so this name, so remove it (best effort; Open and
		// Reset sweep what this misses).
		_ = f.Close()
		_ = w.fs.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	w.segs = append(w.segs, segment{name: name, seq: w.nextSeq})
	w.nextSeq++
	w.m.rolls.Inc()
	w.m.segments.Set(float64(len(w.segs)))
	w.cur = f
	w.curSize = int64(headerLen)
	return nil
}

// ReplayKeyed streams every durable record in log order to fn, wholesale
// skipping segments whose sequence number is below coveredSeq (those a
// checkpoint already covers — their files are not even read). Call it
// after Open and before the first AppendBatch. A torn tail is only legal
// in the last segment (Open already removed it); corruption in a sealed
// segment is an error.
func (w *WAL) ReplayKeyed(coveredSeq uint64, fn func(KeyedRecord) error) error {
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	for i, seg := range segs {
		if seg.seq < coveredSeq {
			continue
		}
		data, err := w.fs.ReadFile(filepath.Join(w.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		valid, err := scanSegment(data, fn)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", seg.name, err)
		}
		if valid < int64(len(data)) && i != len(segs)-1 {
			return fmt.Errorf("wal: sealed segment %s corrupt at offset %d", seg.name, valid)
		}
	}
	return nil
}

// ActiveSeq returns the active segment's sequence number, or the next
// sequence number to be assigned when the log has no segments yet. A
// checkpoint taken now covers every sealed segment below this value; the
// active segment may still gain records after the checkpoint, so replay
// must not skip it.
func (w *WAL) ActiveSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.segs); n > 0 {
		return w.segs[n-1].seq
	}
	return w.nextSeq
}

// NextSeq returns the sequence number the NEXT segment will get: every
// existing segment, active one included, is below it. A restore that is
// about to Reset the log records this as its covered sequence so replay
// skips everything predating the reset.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// DropSealedBefore deletes sealed segments with sequence numbers below
// seq — those fully covered by a durable checkpoint. The active (last)
// segment is never deleted. Removal failures keep the segment: a leftover
// only costs disk, since replay skips covered sequence numbers anyway.
func (w *WAL) DropSealedBefore(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.segs[:0]
	for i, seg := range w.segs {
		if i+1 < len(w.segs) && seg.seq < seq {
			if err := w.fs.Remove(filepath.Join(w.dir, seg.name)); err == nil {
				continue
			}
		}
		kept = append(kept, seg)
	}
	w.segs = kept
	w.m.segments.Set(float64(len(w.segs)))
	return nil
}

// Close seals the log: flush, fsync and close the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil {
		return nil
	}
	serr := w.cur.Sync()
	cerr := w.cur.Close()
	w.cur = nil
	if serr != nil {
		return fmt.Errorf("wal: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}

// appendRecord frames one record onto buf. A batch is framed into one
// buffer so it is written with one Write call: a crash mid-call tears
// only the tail of the batch.
func appendRecord(buf []byte, r KeyedRecord) []byte {
	payloadLen := recFixed + len(r.Key) + 8*len(r.Values)
	off := len(buf)
	buf = append(buf, make([]byte, recHdrLen+payloadLen)...)
	payload := buf[off+recHdrLen:]
	flags := byte(0)
	if r.Delete {
		flags |= 1
	}
	payload[0] = flags
	binary.LittleEndian.PutUint16(payload[1:], uint16(len(r.Key)))
	copy(payload[3:], r.Key)
	binary.LittleEndian.PutUint64(payload[3+len(r.Key):], uint64(r.Start))
	vals := payload[recFixed+len(r.Key):]
	for i, v := range r.Values {
		binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(payload[:payloadLen], castagnoli))
	return buf
}

// scanSegment parses a segment image, invoking fn (when non-nil) per
// record. It returns the length of the valid prefix. A malformed header
// is an error; a short, checksum-failing or structurally corrupt tail
// merely ends the valid prefix (the torn-tail case).
func scanSegment(data []byte, fn func(KeyedRecord) error) (valid int64, err error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return 0, errBadHeader
	}
	off := headerLen
	for {
		if len(data)-off < recHdrLen {
			break // torn record header (or clean EOF)
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if payloadLen < recFixed+1 || payloadLen > maxPayload {
			break // corrupt length: treat as tear
		}
		if len(data)-off-recHdrLen < payloadLen {
			break // torn payload
		}
		payload := data[off+recHdrLen : off+recHdrLen+payloadLen]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // torn or corrupt payload
		}
		keyLen := int(binary.LittleEndian.Uint16(payload[1:]))
		if keyLen == 0 || keyLen > MaxKeyLen ||
			payloadLen < recFixed+keyLen ||
			(payloadLen-recFixed-keyLen)%8 != 0 {
			break // structurally corrupt record: treat as tear
		}
		if fn != nil {
			rec := KeyedRecord{
				Key:    string(payload[3 : 3+keyLen]),
				Start:  int64(binary.LittleEndian.Uint64(payload[3+keyLen:])),
				Delete: payload[0]&1 != 0,
			}
			if n := (payloadLen - recFixed - keyLen) / 8; n > 0 && !rec.Delete {
				rec.Values = make([]float64, n)
				vals := payload[recFixed+keyLen:]
				for i := range rec.Values {
					rec.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
				}
			}
			if err := fn(rec); err != nil {
				return int64(off), err
			}
		}
		off += recHdrLen + payloadLen
	}
	return int64(off), nil
}

// listSegments returns dir's segments sorted by sequence number.
func listSegments(fsys faults.FS, dir string) ([]segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var seq, start uint64
		if _, err := fmt.Sscanf(name, "wal-%016x-%016x.log", &seq, &start); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}
