package docstore

import (
	"encoding/binary"
	"errors"
	"math"
)

// Block-compressed postings codec.
//
// A postings list is split into blocks of at most blockSize entries. Each
// block is self-contained: an interleaved sequence of uvarint pairs
//
//	(gap, tf) (gap, tf) ...
//
// where gap is the delta between consecutive document ordinals plus one
// (the first entry's gap is ord0+1, i.e. the previous ordinal is taken to
// be -1). Gaps are therefore always >= 1 and a zero gap marks corruption.
// Term frequencies are >= 1 for the same reason. Because blocks do not
// reference each other, the search cursor can skip a block without ever
// decoding it — the per-block metadata (last ordinal, entry count, max
// score ratio) lives outside the byte stream in blockMeta.

// blockSize is the maximum number of (ordinal, tf) postings per block.
const blockSize = 128

// ordSentinel is the exhausted-cursor marker; ordinals must stay below it.
const ordSentinel = ^uint32(0)

// postEntry is one decoded posting: document ordinal and term frequency.
type postEntry struct {
	ord uint32
	tf  uint32
}

var (
	errBlockTruncated = errors.New("docstore: truncated postings block")
	errBlockCorrupt   = errors.New("docstore: corrupt postings block")
)

// appendPostingsBlock delta+varint encodes entries (which must be sorted by
// strictly increasing ord, with tf >= 1) onto dst and returns the extended
// slice.
func appendPostingsBlock(dst []byte, entries []postEntry) []byte {
	prev := int64(-1)
	for _, e := range entries {
		gap := int64(e.ord) - prev
		dst = binary.AppendUvarint(dst, uint64(gap))
		dst = binary.AppendUvarint(dst, uint64(e.tf))
		prev = int64(e.ord)
	}
	return dst
}

// decodePostingsBlock reads exactly count (gap, tf) pairs from data into
// ords and tfs (each of length >= count) and returns the number of bytes
// consumed. It validates every invariant the encoder guarantees — gaps and
// tfs nonzero, ordinals strictly increasing and below ordSentinel — so a
// corrupt or truncated stream yields an error, never a panic or a bogus
// posting.
func decodePostingsBlock(data []byte, count int, ords, tfs []uint32) (int, error) {
	if count < 0 || count > len(ords) || count > len(tfs) {
		return 0, errBlockCorrupt
	}
	off := 0
	prev := int64(-1)
	for i := 0; i < count; i++ {
		var gap, tf uint64
		if off+1 < len(data) && data[off]|data[off+1] < 0x80 {
			// Two one-byte uvarints — nearly every pair — are their own
			// values; the checks below apply to them as to any other.
			gap, tf = uint64(data[off]), uint64(data[off+1])
			off += 2
		} else {
			var n int
			if gap, n = binary.Uvarint(data[off:]); n <= 0 {
				return 0, errBlockTruncated
			}
			off += n
			if tf, n = binary.Uvarint(data[off:]); n <= 0 {
				return 0, errBlockTruncated
			}
			off += n
		}
		if gap == 0 || gap > math.MaxUint32 || tf == 0 || tf > math.MaxUint32 {
			return 0, errBlockCorrupt
		}
		ord := prev + int64(gap)
		if ord >= int64(ordSentinel) {
			return 0, errBlockCorrupt
		}
		ords[i] = uint32(ord)
		tfs[i] = uint32(tf)
		prev = ord
	}
	return off, nil
}
