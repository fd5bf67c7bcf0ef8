package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshots are whole-state checkpoints: one file per generation barrier,
// committed atomically (temp file in the same directory, write, fsync,
// rename, fsync directory). A crash at any instant leaves either the
// previous snapshot set intact or the new file fully committed — never a
// partially written snapshot under the real name.
//
// File layout:
//
//	"CPRSNAP" u8-version   8-byte header
//	u64 barrier            little-endian
//	u32 payload length     little-endian
//	... payload
//	u32 crc32/IEEE over barrier+length+payload
const (
	snapMagic = "CPRSNAP" // 7 bytes + 1 version byte
	// SnapVersion is the snapshot container version; the payload carries
	// its own schema version on top (internal/core owns that).
	SnapVersion = 1

	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
)

// ErrNoSnapshot reports that a checkpoint directory holds no loadable
// snapshot (empty, missing, or nothing but rejects).
var ErrNoSnapshot = errors.New("journal: no usable snapshot")

// Snapshot is a decoded snapshot file.
type Snapshot struct {
	Barrier uint64
	Payload []byte
}

// SnapshotPath returns the canonical file name for a barrier's snapshot.
// Names sort lexically in barrier order.
func SnapshotPath(dir string, barrier uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, barrier, snapSuffix))
}

// WriteSnapshot atomically commits payload as the snapshot for barrier,
// creating dir if needed.
func WriteSnapshot(dir string, barrier uint64, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 0, 8+8+4+len(payload)+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, SnapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, barrier)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[8:]))
	return WriteFileAtomic(SnapshotPath(dir, barrier), buf)
}

// ReadSnapshot decodes the snapshot file at path, failing with ErrCorrupt
// or ErrVersion on anything short of a fully committed artifact.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8+8+4+4 {
		return nil, fmt.Errorf("%w: snapshot %s: too short (%d bytes)", ErrCorrupt, filepath.Base(path), len(data))
	}
	if string(data[:7]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if data[7] != SnapVersion {
		return nil, fmt.Errorf("%w: snapshot %s: version %d, want %d", ErrVersion, filepath.Base(path), data[7], SnapVersion)
	}
	barrier := binary.LittleEndian.Uint64(data[8:])
	n := int(binary.LittleEndian.Uint32(data[16:]))
	if n < 0 || 8+8+4+n+4 != len(data) {
		return nil, fmt.Errorf("%w: snapshot %s: payload length %d inconsistent with file size %d", ErrCorrupt, filepath.Base(path), n, len(data))
	}
	body := data[8 : 8+8+4+n]
	sum := binary.LittleEndian.Uint32(data[8+8+4+n:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: snapshot %s: checksum mismatch", ErrCorrupt, filepath.Base(path))
	}
	return &Snapshot{Barrier: barrier, Payload: data[8+8+4 : 8+8+4+n]}, nil
}

// LoadLatest returns the newest loadable snapshot in dir. Snapshots that
// fail validation are skipped (older intact ones still load); their errors
// are joined into the ErrNoSnapshot error if nothing loads. A missing or
// empty directory is ErrNoSnapshot.
func LoadLatest(dir string) (*Snapshot, error) {
	names, err := snapshotNames(dir)
	if err != nil {
		return nil, err
	}
	var rejects []error
	for i := len(names) - 1; i >= 0; i-- {
		snap, err := ReadSnapshot(filepath.Join(dir, names[i]))
		if err != nil {
			rejects = append(rejects, err)
			continue
		}
		return snap, nil
	}
	return nil, errors.Join(append([]error{fmt.Errorf("%w in %s", ErrNoSnapshot, dir)}, rejects...)...)
}

// Prune deletes all but the newest keep snapshot files in dir. Old
// snapshots are kept as fallbacks for a corrupt newest one, so keep should
// be at least 2.
func Prune(dir string, keep int) error {
	names, err := snapshotNames(dir)
	if err != nil || len(names) <= keep {
		return err
	}
	var first error
	for _, name := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func snapshotNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: directory %s does not exist", ErrNoSnapshot, dir)
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) > len(snapPrefix)+len(snapSuffix) &&
			name[:len(snapPrefix)] == snapPrefix && name[len(name)-len(snapSuffix):] == snapSuffix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// WriteFileAtomic commits data to path via a same-directory temp file,
// fsync, rename, and directory fsync. Readers of path never observe a
// partial write, even across SIGKILL or power loss.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
