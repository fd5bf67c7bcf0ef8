package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: 1, Payload: []byte("first")},
		{Kind: 2, Payload: nil},
		{Kind: 1, Payload: []byte("third record with more bytes")},
	}
	for _, r := range want {
		if err := w.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen for append: header must validate, new records land after old.
	w, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(3, []byte("appended")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Kind: 3, Payload: []byte("appended")})

	got, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || string(got[i].Payload) != string(want[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLogMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if recs, err := ReadLog(filepath.Join(dir, "absent.journal")); err != nil || recs != nil {
		t.Fatalf("missing log: recs=%v err=%v, want nil/nil", recs, err)
	}
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadLog(empty); err != nil || recs != nil {
		t.Fatalf("zero-byte log: recs=%v err=%v, want nil/nil", recs, err)
	}
}

func TestLogTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("doomed tail record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the end one at a time: the intact first record must
	// survive every torn-tail length.
	for cut := len(data) - 1; cut > len(data)-20; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadLog(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 1 || string(recs[0].Payload) != "intact" {
			t.Fatalf("cut at %d: got %d records, want the 1 intact record", cut, len(recs))
		}
	}
}

func TestLogCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	w, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("corrupted")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x40 // flip a payload bit in the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "intact" {
		t.Fatalf("got %d records, want only the intact one", len(recs))
	}
}

func TestLogVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, append([]byte(logMagic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("ReadLog err = %v, want ErrVersion", err)
	}
	if _, err := OpenLog(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenLog err = %v, want ErrVersion", err)
	}
	if err := os.WriteFile(path, []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLog err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("engine state bytes")
	if err := WriteSnapshot(dir, 7, payload); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(SnapshotPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Barrier != 7 || string(snap.Payload) != string(payload) {
		t.Fatalf("snapshot = %d/%q", snap.Barrier, snap.Payload)
	}
	latest, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Barrier != 7 {
		t.Fatalf("LoadLatest barrier = %d, want 7", latest.Barrier)
	}
}

func TestSnapshotEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 1, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(SnapshotPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Barrier != 1 || len(snap.Payload) != 0 {
		t.Fatalf("snapshot = %d/%d bytes", snap.Barrier, len(snap.Payload))
	}
}

// corrupt writes a broken snapshot under the name for the given barrier.
func writeRawSnapshot(t *testing.T, dir string, barrier uint64, data []byte) {
	t.Helper()
	if err := os.WriteFile(SnapshotPath(dir, barrier), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCorruptionModes(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 3, []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(SnapshotPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"zero-byte", nil, ErrCorrupt},
		{"short", good[:10], ErrCorrupt},
		{"truncated", good[:len(good)-3], ErrCorrupt},
		{"bad magic", append([]byte("XXXXXXX\x01"), good[8:]...), ErrCorrupt},
		{"bit flip", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-7] ^= 0x01
			return b
		}(), ErrCorrupt},
		{"version mismatch", func() []byte {
			b := append([]byte(nil), good...)
			b[7] = 99
			return b
		}(), ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := t.TempDir()
			writeRawSnapshot(t, sub, 5, tc.data)
			if _, err := ReadSnapshot(SnapshotPath(sub, 5)); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// A directory holding only rejects must surface ErrNoSnapshot.
			if _, err := LoadLatest(sub); !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("LoadLatest err = %v, want ErrNoSnapshot", err)
			}
		})
	}
}

func TestLoadLatestSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 1, []byte("old but intact")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 2, []byte("newer, about to rot")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(SnapshotPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	writeRawSnapshot(t, dir, 2, data)

	snap, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Barrier != 1 || string(snap.Payload) != "old but intact" {
		t.Fatalf("LoadLatest = %d/%q, want the older intact snapshot", snap.Barrier, snap.Payload)
	}
}

func TestLoadLatestMissingDir(t *testing.T) {
	if _, err := LoadLatest(filepath.Join(t.TempDir(), "never-created")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for b := uint64(1); b <= 5; b++ {
		if err := WriteSnapshot(dir, b, []byte{byte(b)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("kept %d snapshots, want 2: %v", len(names), names)
	}
	snap, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Barrier != 5 {
		t.Fatalf("latest after prune = %d, want 5", snap.Barrier)
	}
}

func TestWriteFileAtomicReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2 longer" {
		t.Fatalf("content = %q", data)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the target", len(entries))
	}
}
