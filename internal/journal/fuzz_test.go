package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalCodec hammers the varint/CRC codec and the record-log reader
// that cprd's job log and cpr-bench's row journal are recovered with after
// a crash: arbitrary bytes must never panic the primitive decoder, ReadLog
// must either return records or fail with ErrCorrupt/ErrVersion, and the
// records it returns must survive a re-append/re-read roundtrip unchanged
// (no silent mis-decode).
func FuzzJournalCodec(f *testing.F) {
	var enc Encoder
	enc.U64(42)
	enc.I64(-77)
	enc.Str("row-journal")
	enc.Bool(true)
	enc.F64(3.25)
	enc.Raw([]byte{0, 1, 2, 3})

	path := filepath.Join(f.TempDir(), "seed.log")
	w, err := OpenLog(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(7, enc.Bytes()); err != nil {
		f.Fatal(err)
	}
	if err := w.Append(9, nil); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-6] ^= 0x40 // bit flip inside the last record
	f.Add(flipped)
	badHeader := append([]byte("NOTJRNL"), valid[7:]...)
	f.Add(badHeader)
	f.Add(append(logHeader(), 0xff, 0xff, 0xff, 0xff)) // absurd record length
	f.Add(enc.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The primitive decoder: every op on arbitrary bytes either yields a
		// value or sets the sticky error; it never panics and never reads
		// past the payload.
		d := NewDecoder(data)
		for i := 0; d.Err() == nil && i < 64; i++ {
			switch i % 7 {
			case 0:
				d.U64()
			case 1:
				d.I64()
			case 2:
				d.Bool()
			case 3:
				d.Str()
			case 4:
				d.Raw()
			case 5:
				d.F64()
			case 6:
				d.Dur()
			}
		}
		if rest := d.Rest(); len(rest) > len(data) {
			t.Fatalf("Rest() grew the payload: %d > %d", len(rest), len(data))
		}

		// The record log: read it back as a crashed process would, then
		// re-append every intact record to a fresh log and read that back.
		dir := t.TempDir()
		in := filepath.Join(dir, "in.log")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadLog(in)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("ReadLog: unexpected error class %v", err)
			}
			return
		}
		out := filepath.Join(dir, "out.log")
		w, err := OpenLog(out)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		for _, r := range recs {
			if err := w.Append(r.Kind, r.Payload); err != nil {
				t.Fatalf("re-append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadLog(out)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("roundtrip kept %d of %d records", len(again), len(recs))
		}
		for i := range recs {
			if again[i].Kind != recs[i].Kind || !bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("record %d roundtrip mismatch: kind %d→%d, %d→%d payload bytes",
					i, recs[i].Kind, again[i].Kind, len(recs[i].Payload), len(again[i].Payload))
			}
		}
	})
}
