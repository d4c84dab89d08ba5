// Package checkpoint persists periodic snapshots of streamhistd's
// fixed-window state so restarts replay only the WAL tail written since
// the last checkpoint instead of the whole log.
//
// Each checkpoint is one file, checkpoint-<seen>.ckpt, written atomically:
// the frame goes to a temp file which is fsynced, renamed into place, and
// made durable with a directory fsync. A crash therefore leaves either the
// previous checkpoint or the new one — never a half-written file that
// parses. The frame carries its own CRC-32C so even silent corruption is
// detected, and Latest simply walks candidates from newest to oldest until
// one validates.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamhist/internal/faults"
	"streamhist/internal/trace"
)

const (
	magic  = "SCK1"
	suffix = ".ckpt"
	// maxBlob bounds the payload Latest will load (a 4M-point window
	// snapshot is ~32 MiB; allow headroom).
	maxBlob = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save atomically writes a checkpoint of state blob taken at stream
// position seen (total points ingested). On return without error the
// checkpoint is durable: crash at any point before that leaves the
// previous checkpoint intact. A non-nil tr records an EvCheckpoint event
// carrying code (the shard engine stamps the owning shard's ID there),
// the blob size, the stream position and the write's duration.
func Save(tr *trace.Recorder, code uint8, fsys faults.FS, dir string, seen int64, blob []byte) error {
	if fsys == nil {
		fsys = faults.OS{}
	}
	start := tr.Now()
	frame := encodeFrame(seen, blob)
	name := fileName(seen)
	tmp := filepath.Join(dir, name+".tmp")
	final := filepath.Join(dir, name)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		_ = f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if tr != nil {
		tr.Instant(trace.EvCheckpoint, code, 0, time.Duration(tr.Now()-start), int64(len(blob)), seen)
	}
	return nil
}

// Latest returns the newest checkpoint in dir that parses and validates,
// with the stream position it was taken at. A directory with no usable
// checkpoint returns (nil, 0, nil) — recovery then replays the WAL from
// the beginning.
func Latest(fsys faults.FS, dir string) (blob []byte, seen int64, err error) {
	if fsys == nil {
		fsys = faults.OS{}
	}
	names, err := list(fsys, dir)
	if err != nil {
		return nil, 0, err
	}
	// Newest first; skip any that fail to load or validate (torn by an
	// unluckily-timed crash under a non-atomic filesystem, or corrupt).
	for i := len(names) - 1; i >= 0; i-- {
		data, rerr := fsys.ReadFile(filepath.Join(dir, names[i]))
		if rerr != nil {
			continue
		}
		b, s, derr := decodeFrame(data)
		if derr != nil {
			continue
		}
		return b, s, nil
	}
	return nil, 0, nil
}

// Prune removes checkpoints older than the keep newest ones, plus any
// leftover temp files from interrupted saves. A failure never blocks the
// caller's checkpoint — a stale file only costs disk — but it is
// reported (the first error encountered) so the caller can log and count
// it instead of flying blind on a disk that refuses deletes.
func Prune(fsys faults.FS, dir string, keep int) error {
	if fsys == nil {
		fsys = faults.OS{}
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: prune: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			note(fsys.Remove(filepath.Join(dir, e.Name())))
		}
	}
	names, err := list(fsys, dir)
	if err != nil {
		note(err)
		return firstErr
	}
	for i := 0; i < len(names)-keep; i++ {
		note(fsys.Remove(filepath.Join(dir, names[i])))
	}
	return firstErr
}

func fileName(seen int64) string {
	return fmt.Sprintf("checkpoint-%016x%s", uint64(seen), suffix)
}

// list returns checkpoint file names sorted oldest to newest by the seen
// position encoded in the name.
func list(fsys faults.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, suffix) {
			continue
		}
		var seen uint64
		if _, err := fmt.Sscanf(name, "checkpoint-%016x"+suffix, &seen); err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // hex-padded seen sorts lexicographically
	return names, nil
}

// encodeFrame wraps blob as magic | seen | len | blob | crc32c(prior bytes).
func encodeFrame(seen int64, blob []byte) []byte {
	frame := make([]byte, 0, len(magic)+16+len(blob)+4)
	frame = append(frame, magic...)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(seen))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(blob)))
	frame = append(frame, blob...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
	return frame
}

func decodeFrame(data []byte) (blob []byte, seen int64, err error) {
	if len(data) < len(magic)+20 || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("checkpoint: bad header")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch")
	}
	seen = int64(binary.LittleEndian.Uint64(body[len(magic):]))
	n := binary.LittleEndian.Uint64(body[len(magic)+8:])
	if n > maxBlob || int(n) != len(body)-len(magic)-16 {
		return nil, 0, fmt.Errorf("checkpoint: implausible payload length %d", n)
	}
	return body[len(magic)+16:], seen, nil
}
