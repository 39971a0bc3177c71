package docstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// Write-ahead log. Record layout:
//
//	op     uint8  (1 = put, 2 = delete)
//	length uint32 (payload bytes)
//	crc32  uint32 (IEEE over op byte + payload)
//	payload [length]byte   (marshalled document for put, raw id for delete)
//
// Recovery replays records in order. A damaged FINAL record is the tail a
// crash may have half-written: recovery stops cleanly before it and the
// caller truncates so subsequent appends are consistent. A damaged record
// with valid log after it is real corruption (a crash cannot produce it in
// an append-only file) and replay fails hard with ErrCorruptRecord rather
// than silently dropping the committed records behind the damage.

const (
	opPut    = 1
	opDelete = 2
)

// ErrCorruptRecord reports a record whose checksum failed mid-log (not at
// the tail), which indicates real corruption rather than a torn write.
var ErrCorruptRecord = errors.New("docstore: corrupt wal record")

type wal struct {
	f    *os.File
	w    *bufio.Writer
	rec  wire.Writer // the record being appended
	path string
	size int64
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: opening wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("docstore: stat wal: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), path: path, size: st.Size()}, nil
}

// append logs one record, a put of d or a delete of id, built in the log's
// reused record buffer: a warm append allocates nothing.
func (l *wal) append(op uint8, d *Document, id string) error {
	l.rec.Reset()
	l.rec.U8(op)
	l.rec.U64(0) // length and checksum, set once the payload is in
	if op == opPut {
		d.encode(&l.rec)
	}
	rec := append(l.rec.Bytes(), id...) // a put's id is ""
	binary.LittleEndian.PutUint32(rec[1:], uint32(len(rec)-9))
	binary.LittleEndian.PutUint32(rec[5:], recordCRC(rec[:1], rec[9:]))
	if _, err := l.w.Write(rec); err != nil {
		return fmt.Errorf("docstore: wal write: %w", err)
	}
	l.size += int64(len(rec))
	return nil
}

// recordCRC is a record's checksum: CRC-32 (IEEE) over its op byte, then its
// payload.
func recordCRC(op, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crc32.IEEETable, op), crc32.IEEETable, payload)
}

func (l *wal) flush() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("docstore: wal flush: %w", err)
	}
	return nil
}

// sync flushes buffers and fsyncs the file.
func (l *wal) sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("docstore: wal sync: %w", err)
	}
	return nil
}

func (l *wal) close() error {
	if err := l.flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// replayWAL streams records from path, invoking apply per valid record.
// It returns the byte offset of the clean prefix; a torn tail is reported
// via tornTail=true so the caller can truncate.
//
// Torn vs corrupt: an append-only log half-written by a crash can only be
// damaged in its FINAL record, so a bad record with nothing after it is a
// torn tail — recover the clean prefix and truncate. A record that fails
// its checksum (or carries an unknown op) with more log after it cannot be
// a crash artifact; that is real corruption, and silently truncating would
// drop valid acknowledged records behind the damage. That case is a hard
// ErrCorruptRecord so the operator restores from the snapshot instead of
// trusting a store that lost committed history.
//
// The payload buffer is reused across records (grown to the largest record
// seen): apply implementations copy what they keep — unmarshalDocument
// builds fresh strings/slices and the delete path copies the id — so
// recovery allocates O(max record), not O(log).
func replayWAL(path string, apply func(op uint8, payload []byte) error) (clean int64, tornTail bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("docstore: opening wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var off int64
	var hdr [9]byte
	var buf []byte
	// atTail reports whether the reader is exhausted — the decider between
	// a torn tail and mid-log corruption.
	atTail := func() bool {
		_, perr := r.Peek(1)
		return perr != nil
	}
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return off, false, nil
			}
			// Partial header: torn tail.
			return off, true, nil
		}
		op := hdr[0]
		length := binary.LittleEndian.Uint32(hdr[1:])
		want := binary.LittleEndian.Uint32(hdr[5:])
		if length > wireMaxRecord {
			// A length no writer produces: garbage header. Torn if the
			// file ends here, corrupt if the log continues underneath.
			if atTail() {
				return off, true, nil
			}
			return off, false, fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorruptRecord, off, length)
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, true, nil // file ends inside the record: torn payload
		}
		if recordCRC(hdr[:1], payload) != want || (op != opPut && op != opDelete) {
			if atTail() {
				return off, true, nil // damaged final record: torn tail
			}
			return off, false, fmt.Errorf("%w: checksum failure at offset %d with log following", ErrCorruptRecord, off)
		}
		if err := apply(op, payload); err != nil {
			return off, false, err
		}
		off += int64(len(hdr)) + int64(length)
	}
}

const wireMaxRecord = 64 << 20

// truncateWAL cuts the log to size, removing a torn tail.
func truncateWAL(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("docstore: truncating wal: %w", err)
	}
	return nil
}

// snapshotPaths returns (snapshot, wal) file paths inside dir.
func snapshotPaths(dir string) (string, string) {
	return filepath.Join(dir, "snapshot.agora"), filepath.Join(dir, "wal.agora")
}
