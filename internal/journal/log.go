// Package journal is the durability layer of the repair system: a
// CRC-framed append-only record log and atomically-committed versioned
// snapshot files. Payloads are opaque bytes here; every writer in the
// repository puts a JSON document in them.
//
// The package knows nothing about repair semantics — internal/core
// defines what a snapshot contains; journal defines how it is framed,
// committed, validated, and recovered. The contract for every
// artifact written here is crash-safety under SIGKILL: a reader either
// sees a fully committed, checksummed artifact or rejects it with a clear
// error, never a silent partial load.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The record log is the write-ahead trace of a run: an append-only file of
// CRC-framed records. A process killed mid-append leaves a truncated or
// torn final frame; readers detect it by length and checksum and stop at
// the last intact record — the tail is sacrificed, never misread.
//
// Frame layout, after an 8-byte file header:
//
//	u32 length   (kind byte + payload, little-endian)
//	u8  kind
//	... payload
//	u32 crc32/IEEE over kind+payload
const (
	logMagic = "CPRJRNL" // 7 bytes + 1 version byte
	// LogVersion is the record-log format version; bump on any framing
	// or payload-encoding change. Readers reject logs from other versions.
	// Version 2 payloads are JSON; version 1 payloads were varint-encoded.
	LogVersion = 2
	// maxRecord bounds a single record; larger lengths mark a corrupt frame.
	maxRecord = 1 << 28
)

// ErrVersion reports an artifact written by an incompatible format version.
var ErrVersion = errors.New("journal: format version mismatch")

// ErrCorrupt reports an artifact that fails structural validation
// (bad magic, bad checksum, impossible lengths).
var ErrCorrupt = errors.New("journal: corrupt artifact")

// Record is one entry of a record log. Kind is caller-defined.
type Record struct {
	Kind    uint8
	Payload []byte
}

// LogWriter appends CRC-framed records to a journal file.
type LogWriter struct {
	f *os.File
}

// OpenLog opens (or creates) the record log at path for appending,
// writing the file header if the file is new or empty. An existing header
// from another format version is an ErrVersion error.
func OpenLog(path string) (*LogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.Write(logHeader()); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		var hdr [8]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: short header", ErrCorrupt)
		}
		if err := checkLogHeader(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &LogWriter{f: f}, nil
}

func logHeader() []byte {
	return append([]byte(logMagic), LogVersion)
}

func checkLogHeader(hdr []byte) error {
	if len(hdr) < 8 || string(hdr[:7]) != logMagic {
		return fmt.Errorf("%w: bad record-log magic", ErrCorrupt)
	}
	if hdr[7] != LogVersion {
		return fmt.Errorf("%w: record log version %d, want %d", ErrVersion, hdr[7], LogVersion)
	}
	return nil
}

// Append frames and writes one record. The write is buffered by the OS;
// call Sync to make the tail durable (snapshot commits do).
func (w *LogWriter) Append(kind uint8, payload []byte) error {
	frame := make([]byte, 0, 4+1+len(payload)+4)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(1+len(payload)))
	frame = append(frame, kind)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	_, err := w.f.Write(frame)
	return err
}

// Sync flushes the log to stable storage.
func (w *LogWriter) Sync() error { return w.f.Sync() }

// Close syncs and closes the log.
func (w *LogWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReadLog returns every intact record of the log at path, in append order.
// A truncated or corrupt tail ends the scan cleanly (the records before it
// are returned); a missing file yields no records and no error — both are
// the expected states after a crash. Only a malformed header (wrong magic
// or format version) is an error: that log cannot be appended to safely.
func ReadLog(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: short record-log header", ErrCorrupt)
	}
	if err := checkLogHeader(data[:8]); err != nil {
		return nil, err
	}
	var out []Record
	off := 8
	for off+4 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n < 1 || n > maxRecord || off+4+n+4 > len(data) {
			break // truncated or torn tail
		}
		body := data[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(body) != sum {
			break // corrupt tail
		}
		out = append(out, Record{Kind: body[0], Payload: body[1:]})
		off += 4 + n + 4
	}
	return out, nil
}
