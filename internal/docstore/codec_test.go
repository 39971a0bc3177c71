package docstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestCodecRoundTrip: encode/decode is the identity on every legal block
// shape — single entry, full block, dense gaps, huge sparse gaps, and the
// extreme ordinal/tf values the validator must admit.
func TestCodecRoundTrip(t *testing.T) {
	cases := map[string][]postEntry{
		"single":      {{ord: 0, tf: 1}},
		"dense":       {{0, 1}, {1, 2}, {2, 1}, {3, 9}},
		"sparse":      {{5, 1}, {1 << 20, 3}, {1 << 30, 7}},
		"max ordinal": {{0, 1}, {ordSentinel - 1, 1}},
		"max tf":      {{3, math.MaxUint32}, {4, 1}},
	}
	full := make([]postEntry, blockSize)
	for i := range full {
		full[i] = postEntry{ord: uint32(i * 3), tf: uint32(i%7 + 1)}
	}
	cases["full block"] = full

	for name, entries := range cases {
		enc := appendPostingsBlock(nil, entries)
		var ords, tfs [blockSize]uint32
		n, err := decodePostingsBlock(enc, len(entries), ords[:], tfs[:])
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if n != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", name, n, len(enc))
		}
		for i, e := range entries {
			if ords[i] != e.ord || tfs[i] != e.tf {
				t.Fatalf("%s: entry %d = (%d,%d), want (%d,%d)", name, i, ords[i], tfs[i], e.ord, e.tf)
			}
		}
	}
}

// TestCodecAppendExtends: encoding appends to dst without clobbering what
// is already there — blocks share one arena in the compiled index.
func TestCodecAppendExtends(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	enc := appendPostingsBlock(prefix, []postEntry{{7, 2}})
	if !bytes.Equal(enc[:2], prefix) {
		t.Fatal("encoder clobbered existing arena bytes")
	}
	var ords, tfs [1]uint32
	if _, err := decodePostingsBlock(enc[2:], 1, ords[:], tfs[:]); err != nil {
		t.Fatal(err)
	}
	if ords[0] != 7 || tfs[0] != 2 {
		t.Fatalf("got (%d,%d), want (7,2)", ords[0], tfs[0])
	}
}

// TestCodecTruncated: every strict prefix of a valid block decodes to
// errBlockTruncated, never to a bogus posting or a panic.
func TestCodecTruncated(t *testing.T) {
	entries := []postEntry{{100, 2}, {1 << 21, 5}, {1 << 22, 1}}
	enc := appendPostingsBlock(nil, entries)
	var ords, tfs [blockSize]uint32
	for cut := 0; cut < len(enc); cut++ {
		_, err := decodePostingsBlock(enc[:cut], len(entries), ords[:], tfs[:])
		if !errors.Is(err, errBlockTruncated) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want errBlockTruncated", cut, len(enc), err)
		}
	}
}

// TestCodecCorrupt: streams that violate an encoder invariant — zero gaps,
// zero tfs, values past 32 bits, ordinals reaching the cursor sentinel —
// are rejected as errBlockCorrupt.
func TestCodecCorrupt(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := map[string]struct {
		data  []byte
		count int
	}{
		"zero gap":          {uv(0, 1), 1},
		"zero tf":           {uv(1, 0), 1},
		"gap past uint32":   {uv(math.MaxUint32+1, 1), 1},
		"tf past uint32":    {uv(1, math.MaxUint32+1), 1},
		"ord hits sentinel": {uv(uint64(ordSentinel)+1, 1), 1},
		// Cumulative overflow: two legal gaps whose sum crosses the sentinel.
		"ord sum overflow": {uv(uint64(ordSentinel), 1, math.MaxUint32, 1), 2},
		// The zeroes again where the decoder reads a pair of single bytes
		// directly — behind a good pair, with bytes to spare after — and
		// beside a two-byte value, where it does not.
		"zero gap, one-byte pair": {[]byte{1, 1, 0, 1, 1, 1}, 2},
		"zero tf, one-byte pair":  {[]byte{1, 1, 1, 0, 1, 1}, 2},
		"zero gap before 0x80":    {[]byte{0, 0x80, 1, 1}, 1},
		"zero tf after 0x80":      {[]byte{0x80, 1, 0, 1}, 1},
	}
	var ords, tfs [blockSize]uint32
	for name, c := range cases {
		if _, err := decodePostingsBlock(c.data, c.count, ords[:], tfs[:]); !errors.Is(err, errBlockCorrupt) {
			t.Fatalf("%s: err = %v, want errBlockCorrupt", name, err)
		}
	}
	// A count the scratch buffers cannot hold is caller corruption too.
	if _, err := decodePostingsBlock(uv(1, 1), 2, ords[:1], tfs[:1]); !errors.Is(err, errBlockCorrupt) {
		t.Fatalf("oversized count: err = %v, want errBlockCorrupt", err)
	}
	if _, err := decodePostingsBlock(uv(1, 1), -1, ords[:], tfs[:]); !errors.Is(err, errBlockCorrupt) {
		t.Fatalf("negative count: err = %v, want errBlockCorrupt", err)
	}
}

// pairEdges are streams around the decoder's direct read of a (gap, tf) pair
// of two single bytes: 0x7f is the last value that takes it and 0x80 the
// first byte that does not, on either side of the pair; a pair may be cut by
// the end of data after either byte; and a block may end exactly at
// len(data), where the read must not look one byte further. want nil means
// the stream is truncated.
var pairEdges = []struct {
	name  string
	data  []byte
	count int
	want  []postEntry
}{
	{"0x7f 0x7f", []byte{0x7f, 0x7f}, 1, []postEntry{{126, 127}}},
	{"0x80 on the gap", []byte{0x80, 0x01, 0x7f}, 1, []postEntry{{127, 127}}},
	{"0x80 on the tf", []byte{0x7f, 0x80, 0x01}, 1, []postEntry{{126, 128}}},
	{"0x80 on both", []byte{0x80, 0x01, 0x80, 0x01}, 1, []postEntry{{127, 128}}},
	{"ends exactly at len(data)", []byte{1, 1, 2, 3}, 2, []postEntry{{0, 1}, {2, 3}}},
	{"two-byte pair, then one-byte pair at the end", []byte{0x80, 0x01, 0x80, 0x01, 1, 1}, 2, []postEntry{{127, 128}, {128, 1}}},
	{"bytes to spare are not read", []byte{1, 1, 0, 0}, 1, []postEntry{{0, 1}}},
	{"pair cut after the gap", []byte{1, 1, 5}, 2, nil},
	{"pair cut before the gap", []byte{1, 1}, 2, nil},
	{"tf cut inside 0x80", []byte{0x7f, 0x80}, 1, nil},
	{"gap cut inside 0x80", []byte{0x80}, 1, nil},
}

// TestCodecPairEdges: the direct read keeps the decoder's contract at its own
// boundaries — the same postings, the same byte count, the same errors.
func TestCodecPairEdges(t *testing.T) {
	for _, c := range pairEdges {
		var ords, tfs [blockSize]uint32
		n, err := decodePostingsBlock(c.data, c.count, ords[:], tfs[:])
		if c.want == nil {
			if !errors.Is(err, errBlockTruncated) {
				t.Fatalf("%s: err = %v, want errBlockTruncated", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wantN := len(appendPostingsBlock(nil, c.want)); n != wantN {
			t.Fatalf("%s: consumed %d bytes, want %d", c.name, n, wantN)
		}
		for i, e := range c.want {
			if ords[i] != e.ord || tfs[i] != e.tf {
				t.Fatalf("%s: entry %d = (%d,%d), want (%d,%d)", c.name, i, ords[i], tfs[i], e.ord, e.tf)
			}
		}
	}
}

// uvarintPairs is the decoder without its shortcut or its checks: count pairs
// read by binary.Uvarint alone. ok is false when the bytes run out.
func uvarintPairs(data []byte, count int) (gaps, tfs []uint64, n int, ok bool) {
	for i := 0; i < 2*count; i++ {
		v, m := binary.Uvarint(data[n:])
		if m <= 0 {
			return nil, nil, 0, false
		}
		n += m
		if i%2 == 0 {
			gaps = append(gaps, v)
		} else {
			tfs = append(tfs, v)
		}
	}
	return gaps, tfs, n, true
}

// FuzzPostingsCodec drives the decoder with arbitrary bytes and counts. For
// any input the decoder must return cleanly — no panics, no out-of-range
// indexes — and anything it accepts must satisfy the posting invariants and
// survive an encode→decode round trip unchanged (so the decoder cannot
// invent postings the encoder could never have produced). Byte-exact
// re-encoding is deliberately not required: uvarint tolerates non-minimal
// encodings, and the encoder only ever emits minimal ones. Whatever it
// accepts it must also have read exactly as a plain binary.Uvarint loop
// reads it: the direct read of one-byte pairs is a shortcut, not a format.
func FuzzPostingsCodec(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add(appendPostingsBlock(nil, []postEntry{{0, 1}}), 1)
	f.Add(appendPostingsBlock(nil, []postEntry{{5, 2}, {1 << 20, 3}}), 2)
	f.Add(appendPostingsBlock(nil, []postEntry{{0, 1}, {ordSentinel - 1, math.MaxUint32}}), 2)
	full := make([]postEntry, blockSize)
	r := rand.New(rand.NewSource(1))
	prev := int64(-1)
	for i := range full {
		prev += 1 + int64(r.Intn(1000))
		full[i] = postEntry{ord: uint32(prev), tf: uint32(1 + r.Intn(9))}
	}
	f.Add(appendPostingsBlock(nil, full), blockSize)
	f.Add([]byte{0x00, 0x01}, 1)                                  // zero gap
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1}, 1) // gap > uint32
	f.Add([]byte{1, 1, 0, 1, 1, 1}, 2)                            // zero gap in one-byte form
	f.Add([]byte{1, 1, 1, 0, 1, 1}, 2)                            // zero tf in one-byte form
	for _, c := range pairEdges {
		f.Add(c.data, c.count)
	}

	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > blockSize {
			count = ((count % blockSize) + blockSize) % blockSize
		}
		var ords, tfs [blockSize]uint32
		n, err := decodePostingsBlock(data, count, ords[:], tfs[:])
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		gaps, rtfs, rn, ok := uvarintPairs(data, count)
		if !ok || rn != n {
			t.Fatalf("accepted %d bytes where a uvarint loop reads %d (ok=%v)", n, rn, ok)
		}
		at := int64(-1)
		for i := 0; i < count; i++ {
			at += int64(gaps[i])
			if int64(ords[i]) != at || uint64(tfs[i]) != rtfs[i] {
				t.Fatalf("posting %d = (%d,%d), a uvarint loop reads (%d,%d)", i, ords[i], tfs[i], at, rtfs[i])
			}
		}
		entries := make([]postEntry, count)
		prev := int64(-1)
		for i := 0; i < count; i++ {
			if int64(ords[i]) <= prev || ords[i] >= ordSentinel || tfs[i] == 0 {
				t.Fatalf("accepted invalid posting %d: ord=%d (prev %d) tf=%d", i, ords[i], prev, tfs[i])
			}
			prev = int64(ords[i])
			entries[i] = postEntry{ord: ords[i], tf: tfs[i]}
		}
		re := appendPostingsBlock(nil, entries)
		if len(re) > n {
			t.Fatalf("re-encode grew: %d bytes from %d consumed", len(re), n)
		}
		var ords2, tfs2 [blockSize]uint32
		m, err := decodePostingsBlock(re, count, ords2[:], tfs2[:])
		if err != nil || m != len(re) {
			t.Fatalf("re-decode: n=%d err=%v", m, err)
		}
		for i := 0; i < count; i++ {
			if ords2[i] != ords[i] || tfs2[i] != tfs[i] {
				t.Fatalf("round trip changed entry %d: (%d,%d) -> (%d,%d)",
					i, ords[i], tfs[i], ords2[i], tfs2[i])
			}
		}
	})
}
