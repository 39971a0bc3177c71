package docstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/wire"
)

// Snapshot file, version 2: the compiled form of the store — a compiledIndex
// written out, so cold start rebuilds the index from its postings blocks
// (through the one encoder, appendTerm) instead of re-tokenizing documents.
//
//	magic "AGORASN2" (8 bytes)
//	payload:
//	  uvarint nDocs
//	  nDocs × { uvarint len, marshalled Document }   // ascending-ID order == ordinal order
//	  nDocs × uvarint docLen
//	  uvarint nTerms
//	  nTerms × {
//	    uvarint len(term), term bytes
//	    uvarint df
//	    ceil(df/blockSize) postings blocks, back-to-back (codec.go); each
//	    block holds min(blockSize, remaining) entries, so boundaries are
//	    implicit and no per-block directory is stored
//	  }                                              // ascending term order
//	crc32-IEEE over payload (4 bytes, little-endian)
//
// Legacy snapshot files (pre-v2) are WAL-format record streams with no
// magic; loadSnapshotFile declines them and Open replays them like a WAL.
// Compaction always writes v2, so old stores upgrade on their first
// compact.

const snapMagic = "AGORASN2"

// writeSnapshotV2 streams cx (the compiled live set, including its
// documents) to w in snapshot-v2 format, through one 64 KB buffer that keeps
// the payload's running CRC-32. Each document is encoded into one reused
// record writer, so the file is never held whole.
func writeSnapshotV2(w io.Writer, cx *compiledIndex) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	// emit writes the head, then body, and starts the next head. bufio's
	// error is sticky: the Flush below reports the first failed Write.
	var head, rec wire.Writer
	emit := func(body []byte) {
		bw.Write(head.Bytes())
		bw.Write(body)
		head.Reset()
	}
	head.Uvarint(uint64(len(cx.ids)))
	for _, d := range cx.docs {
		rec.Reset()
		d.encode(&rec)
		head.Uvarint(uint64(rec.Len()))
		emit(rec.Bytes())
	}
	for _, dl := range cx.docLens {
		head.Uvarint(uint64(dl))
		emit(nil)
	}
	head.Uvarint(uint64(len(cx.termList)))
	for i, t := range cx.termList {
		tm := cx.tms[i]
		head.String(t)
		head.Uvarint(uint64(tm.df))
		start := cx.blocks[tm.blockOff].off
		end := uint32(len(cx.data))
		if next := tm.blockOff + tm.nBlocks; int(next) < len(cx.blocks) {
			end = cx.blocks[next].off
		}
		emit(cx.data[start:end])
	}
	emit(nil)
	if err := bw.Flush(); err != nil {
		return err
	}
	head.U32(crc.Sum32())
	_, err := w.Write(head.Bytes())
	return err
}

// snapReader is a bounds-checked cursor over the snapshot payload.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("docstore: corrupt snapshot: bad varint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d bytes wanted at %d, %d left", n, r.off, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// loadSnapshotFile loads a v2 snapshot: the file's documents and postings
// become the returned index. It returns (nil, nil) when the file is missing
// or is a legacy pre-v2 snapshot — the caller replays that like a WAL — and
// an error when a v2 file is corrupt, as mid-log corruption of the WAL itself
// is.
func loadSnapshotFile(path string) (*compiledIndex, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("docstore: reading snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, nil
	}
	payload := raw[len(snapMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("docstore: corrupt snapshot: checksum mismatch")
	}
	r := &snapReader{b: payload}

	nDocs, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nDocs > uint64(len(payload)) { // each doc record is at least one byte
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d docs in %d payload bytes", nDocs, len(payload))
	}
	// The checksum only proves the bytes are the ones written. Nothing
	// re-sorts what is read here, so the order the index relies on — ids,
	// terms and each term's ordinals strictly ascending — is checked too.
	docs, nVec := make([]*Document, nDocs), 0
	for i := range docs {
		dlen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		db, err := r.bytes(dlen)
		if err != nil {
			return nil, err
		}
		d, err := unmarshalDocument(db)
		if err != nil {
			return nil, fmt.Errorf("docstore: corrupt snapshot: %w", err)
		}
		if i > 0 && d.ID <= docs[i-1].ID {
			return nil, fmt.Errorf("docstore: corrupt snapshot: id %q after %q", d.ID, docs[i-1].ID)
		}
		docs[i], nVec = d, nVec+len(d.Concept)
	}
	cx := newCompiledIndex(len(docs), 0, nVec, 0, 0, 0)
	for _, d := range docs {
		dl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		cx.addDoc(d, uint32(dl), 0, d.Concept.Norm())
	}
	nTerms, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nTerms > uint64(len(payload)) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d terms in %d payload bytes", nTerms, len(payload))
	}
	var ords, tfs [blockSize]uint32
	var entries []postEntry
	for ti := uint64(0); ti < nTerms; ti++ {
		tlen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		tb, err := r.bytes(tlen)
		if err != nil {
			return nil, err
		}
		term := string(tb)
		if ti > 0 && term <= cx.termList[ti-1] {
			return nil, fmt.Errorf("docstore: corrupt snapshot: term %q after %q", term, cx.termList[ti-1])
		}
		df, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if df == 0 || df > nDocs {
			return nil, fmt.Errorf("docstore: corrupt snapshot: term %q df %d of %d docs", term, df, nDocs)
		}
		entries = entries[:0]
		for left := int(df); left > 0; {
			cnt := min(left, blockSize)
			n, err := decodePostingsBlock(payload[r.off:], cnt, ords[:cnt], tfs[:cnt])
			if err != nil {
				return nil, fmt.Errorf("docstore: corrupt snapshot: term %q: %w", term, err)
			}
			r.off += n
			// The codec checks ordinals ascend within a block, so its ends
			// bound it: after the previous block, inside the document table.
			if (len(entries) > 0 && ords[0] <= entries[len(entries)-1].ord) || uint64(ords[cnt-1]) >= nDocs {
				return nil, fmt.Errorf("docstore: corrupt snapshot: term %q ordinals %d..%d out of order or past %d docs", term, ords[0], ords[cnt-1], nDocs)
			}
			for j := 0; j < cnt; j++ {
				entries = append(entries, postEntry{ord: ords[j], tf: tfs[j]})
			}
			left -= cnt
		}
		cx.appendTerm(term, entries)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d trailing bytes", len(payload)-r.off)
	}
	return cx, nil
}
