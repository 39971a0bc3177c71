package docstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Snapshot file, version 2: the compiled form of the store, so cold start
// decodes postings blocks instead of re-tokenizing every document.
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
//	  }
//	crc32-IEEE over payload (4 bytes, little-endian)
//
// Legacy snapshot files (pre-v2) are WAL-format record streams with no
// magic; loadSnapshotFile declines them and Open replays them as before.
// Compaction always writes v2, so old stores upgrade on their first
// compact.

const snapMagic = "AGORASN2"

// writeSnapshotV2 serializes cx (the compiled live set, including its
// documents) to w in snapshot-v2 format.
func writeSnapshotV2(w io.Writer, cx *compiledIndex) error {
	buf := make([]byte, 0, len(cx.data)+len(cx.ids)*64)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(cx.ids)))
	for _, d := range cx.docs {
		raw := d.marshal()
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	for _, dl := range cx.docLens {
		buf = binary.AppendUvarint(buf, uint64(dl))
	}
	buf = binary.AppendUvarint(buf, uint64(len(cx.termList)))
	for _, t := range cx.termList {
		tm := cx.terms[t]
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
		buf = binary.AppendUvarint(buf, uint64(tm.df))
		start := cx.blocks[tm.blockOff].off
		end := uint32(len(cx.data))
		if next := tm.blockOff + tm.nBlocks; int(next) < len(cx.blocks) {
			end = cx.blocks[next].off
		}
		buf = append(buf, cx.data[start:end]...)
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(buf[len(snapMagic):]))
	buf = append(buf, tr[:]...)
	_, err := w.Write(buf)
	return err
}

// mergeLiveSet folds a snapshot's overlay into its compiled base and
// recompiles: masked base documents drop out, overlay documents join with
// their precomputed term frequencies. No document is re-tokenized — base
// postings come from decoding the compiled blocks, overlay postings from
// the overlay's own term maps.
func mergeLiveSet(sn *snapshot) *compiledIndex {
	cx := sn.base.cx
	ov := sn.ov
	inv := newInvIndex()
	docs := make(map[string]*Document, sn.docCount)
	// numOf maps a base ordinal to the merged index's document number;
	// masked ordinals keep the sentinel and drop out.
	numOf := make([]uint32, len(cx.ids))
	for i, id := range cx.ids {
		if ov.masked[id] {
			numOf[i] = ordSentinel
			continue
		}
		docs[id] = cx.docs[i]
		numOf[i] = inv.insert(id, int(cx.docLens[i]))
	}
	var ords, tfs [blockSize]uint32
	for _, t := range cx.termList {
		tm := cx.terms[t]
		var p map[uint32]uint32
		for _, bm := range cx.termBlocks(tm) {
			cnt := int(bm.count)
			if _, err := decodePostingsBlock(cx.data[bm.off:], cnt, ords[:cnt], tfs[:cnt]); err != nil {
				panic(err) // in-memory arena, validated at build/load time
			}
			for j := 0; j < cnt; j++ {
				num := numOf[ords[j]]
				if num == ordSentinel {
					continue
				}
				if p == nil {
					p = make(map[uint32]uint32, cnt)
				}
				p[num] = tfs[j]
			}
		}
		if p != nil {
			inv.postings[t] = p
		}
	}
	for id, d := range ov.byID {
		docs[id] = d
		num := inv.insert(id, ov.docLen[id])
		for t, tf := range ov.terms[id] {
			inv.postingsOf(t)[num] = uint32(tf)
		}
	}
	return compileIndex(inv, docs)
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

// loadSnapshotFile loads a v2 snapshot into the (fresh, empty) master
// state. It returns (false, nil) when the file is missing or is a legacy
// pre-v2 snapshot — the caller falls back to WAL-style replay — and an
// error when a v2 file is corrupt, matching the mid-log corruption
// semantics of the WAL itself.
func loadSnapshotFile(path string, st *state) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("docstore: reading snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return false, nil
	}
	payload := raw[len(snapMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return false, fmt.Errorf("docstore: corrupt snapshot: checksum mismatch")
	}
	r := &snapReader{b: payload}

	nDocs, err := r.uvarint()
	if err != nil {
		return false, err
	}
	if nDocs > uint64(len(payload)) { // each doc record is at least one byte
		return false, fmt.Errorf("docstore: corrupt snapshot: %d docs in %d payload bytes", nDocs, len(payload))
	}
	ids := make([]string, nDocs)
	for i := range ids {
		dlen, err := r.uvarint()
		if err != nil {
			return false, err
		}
		db, err := r.bytes(dlen)
		if err != nil {
			return false, err
		}
		d, err := unmarshalDocument(db)
		if err != nil {
			return false, fmt.Errorf("docstore: corrupt snapshot: %w", err)
		}
		ids[i] = d.ID
		// Mirror applyPut minus the inverted index (rebuilt from the
		// compiled postings below, no tokenization) — the master is fresh,
		// so there is no previous version to displace.
		st.docs[d.ID] = d
		for _, t := range d.Topics {
			set, ok := st.byTopic[t]
			if !ok {
				set = make(map[string]bool)
				st.byTopic[t] = set
			}
			set[d.ID] = true
		}
		if len(d.Concept) > 0 {
			st.vec.Put(d.ID, d.Concept)
		}
		st.byTime.insert(d.CreatedAt, d.ID)
		if hasVisual(d) {
			st.visuals++
		}
	}
	// The master is fresh, so insert numbers the documents 0..nDocs-1 in
	// file order: a posting's ordinal is its document number.
	for _, id := range ids {
		dl, err := r.uvarint()
		if err != nil {
			return false, err
		}
		st.inv.insert(id, int(dl))
	}
	nTerms, err := r.uvarint()
	if err != nil {
		return false, err
	}
	if nTerms > uint64(len(payload)) {
		return false, fmt.Errorf("docstore: corrupt snapshot: %d terms in %d payload bytes", nTerms, len(payload))
	}
	var ords, tfs [blockSize]uint32
	for ti := uint64(0); ti < nTerms; ti++ {
		tlen, err := r.uvarint()
		if err != nil {
			return false, err
		}
		tb, err := r.bytes(tlen)
		if err != nil {
			return false, err
		}
		term := string(tb)
		df, err := r.uvarint()
		if err != nil {
			return false, err
		}
		if df == 0 || df > nDocs {
			return false, fmt.Errorf("docstore: corrupt snapshot: term %q df %d of %d docs", term, df, nDocs)
		}
		p := make(map[uint32]uint32, df)
		for left := int(df); left > 0; {
			cnt := min(left, blockSize)
			n, err := decodePostingsBlock(payload[r.off:], cnt, ords[:cnt], tfs[:cnt])
			if err != nil {
				return false, fmt.Errorf("docstore: corrupt snapshot: term %q: %w", term, err)
			}
			r.off += n
			for j := 0; j < cnt; j++ {
				if uint64(ords[j]) >= nDocs {
					return false, fmt.Errorf("docstore: corrupt snapshot: term %q ordinal %d of %d", term, ords[j], nDocs)
				}
				p[ords[j]] = tfs[j]
			}
			left -= cnt
		}
		st.inv.postings[term] = p
	}
	if r.off != len(payload) {
		return false, fmt.Errorf("docstore: corrupt snapshot: %d trailing bytes", len(payload)-r.off)
	}
	return true, nil
}
