package shard

import (
	"fmt"
	"testing"

	"repro/internal/docstore"
	"repro/internal/wire"
)

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard%d", i)
	}
	return out
}

func TestNewUniformCoversRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		m := NewUniform(ids(n))
		if m.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, m.Len())
		}
		if err := m.validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestLocate(t *testing.T) {
	m := NewUniform(ids(4))
	for _, key := range []uint64{0, 1, 1 << 62, 1<<63 - 1, 1 << 63, ^uint64(0), Key("jewelry"), Key("doc00042")} {
		mem := m.Locate(key)
		if mem == nil {
			t.Fatalf("Locate(%d) = nil", key)
		}
		if !mem.Contains(key) {
			t.Fatalf("Locate(%d) = %q [%d,%d] does not contain key", key, mem.ID, mem.Start, mem.End)
		}
	}
	var empty Map
	if empty.Locate(7) != nil {
		t.Fatal("empty map located a member")
	}
}

func TestKeyStable(t *testing.T) {
	// FNV-1a 64 of "a" — pinned so placement never silently changes
	// across releases (documents would land on the wrong shard).
	if got := Key("a"); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("Key(\"a\") = %#x", got)
	}
	if Key("jewelry") == Key("ceramics") {
		t.Fatal("distinct topics collided")
	}
}

func TestDocKey(t *testing.T) {
	withTopic := &docstore.Document{ID: "doc1", Topics: []string{"jewelry", "coin"}}
	if DocKey(withTopic) != Key("jewelry") {
		t.Fatal("DocKey ignored primary topic")
	}
	bare := &docstore.Document{ID: "doc2"}
	if DocKey(bare) != Key("doc2") {
		t.Fatal("DocKey of topicless doc should fall back to ID")
	}
}

func TestJoinSplitsWidestAndStaysContiguous(t *testing.T) {
	m := NewUniform(ids(2))
	hs := m.Join("shard2", "127.0.0.1:9999")
	if len(hs) != 1 {
		t.Fatalf("Join handoffs = %d, want 1", len(hs))
	}
	if err := m.validate(); err != nil {
		t.Fatalf("after join: %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d after join", m.Len())
	}
	h := hs[0]
	// The handoff range must be exactly the new member's range, moving
	// from the shard that previously owned it.
	nm := m.Locate(h.Start)
	if nm.ID != "shard2" || nm.Start != h.Start || nm.End != h.End {
		t.Fatalf("handoff %+v does not match new member [%d,%d]", h, nm.Start, nm.End)
	}
	if h.From == "shard2" {
		t.Fatal("handoff sources from the joining shard")
	}
	// Duplicate join is a no-op.
	if hs := m.Join("shard2"); hs != nil {
		t.Fatalf("duplicate join produced handoffs: %+v", hs)
	}
}

func TestLeaveMergesNeighbor(t *testing.T) {
	m := NewUniform(ids(4))
	hs := m.Leave("shard1")
	if len(hs) != 1 {
		t.Fatalf("Leave handoffs = %d", len(hs))
	}
	if err := m.validate(); err != nil {
		t.Fatalf("after leave: %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if hs[0].From != "shard1" || hs[0].To != "shard0" {
		t.Fatalf("handoff %+v, want shard1→shard0", hs[0])
	}
	// First member leaving merges forward instead.
	hs = m.Leave("shard0")
	if err := m.validate(); err != nil {
		t.Fatalf("after first-member leave: %v", err)
	}
	if hs[0].To != "shard2" {
		t.Fatalf("first-member heir = %q, want shard2", hs[0].To)
	}
	if m.members[0].Start != 0 {
		t.Fatal("ring no longer starts at 0")
	}
	// Unknown ID is a no-op; last member leaving empties the map.
	if hs := m.Leave("nope"); hs != nil {
		t.Fatalf("unknown leave produced handoffs: %+v", hs)
	}
	m.Leave("shard2")
	m.Leave("shard3")
	if m.Len() != 0 {
		t.Fatalf("Len = %d after all left", m.Len())
	}
}

func TestGossipRoundTrip(t *testing.T) {
	m := NewUniform(ids(4))
	m.SetAddrs("shard0", "127.0.0.1:7000")
	m.SetAddrs("shard2", "127.0.0.1:7002")
	entries := m.GossipEntries()
	// Mix in a pre-shard "id addr" peer: it must be ignored, not break
	// parsing (old and new nodes share one gossip stream).
	entries = append(entries, "legacy-node 127.0.0.1:6000")
	got, err := FromGossip(wire.Gossip{Peers: entries})
	if err != nil {
		t.Fatalf("FromGossip: %v", err)
	}
	if got.Len() != 4 {
		t.Fatalf("Len = %d", got.Len())
	}
	for i, mem := range got.Members() {
		want := m.Members()[i]
		if mem.ID != want.ID || mem.Start != want.Start || mem.End != want.End {
			t.Fatalf("member %d = %+v, want %+v", i, mem, want)
		}
	}
	if a := got.Members()[0].Addrs; len(a) != 1 || a[0] != "127.0.0.1:7000" {
		t.Fatalf("shard0 addrs = %v", a)
	}
	if a := got.Members()[1].Addrs; len(a) != 0 {
		t.Fatalf("shard1 (addr unknown) addrs = %v", a)
	}
}

func TestFromGossipRejectsPartialCover(t *testing.T) {
	m := NewUniform(ids(4))
	entries := m.GossipEntries()
	for drop := range entries {
		partial := append(append([]string(nil), entries[:drop]...), entries[drop+1:]...)
		if _, err := FromGossip(wire.Gossip{Peers: partial}); err == nil {
			t.Fatalf("dropping entry %d still validated", drop)
		}
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := ParseRange("0/4")
	if err != nil || lo != 0 || hi != 1<<62-1 {
		t.Fatalf("0/4 = [%d,%d], %v", lo, hi, err)
	}
	lo, hi, err = ParseRange("3/4")
	if err != nil || hi != ^uint64(0) {
		t.Fatalf("3/4 = [%d,%d], %v", lo, hi, err)
	}
	// i/n shorthand must match NewUniform exactly — a node started with
	// -shard-range 1/4 must own the same keys router-side shard1 owns.
	m := NewUniform(ids(4))
	lo, hi, err = ParseRange("1/4")
	if err != nil || lo != m.Members()[1].Start || hi != m.Members()[1].End {
		t.Fatalf("1/4 = [%d,%d], want [%d,%d]", lo, hi, m.Members()[1].Start, m.Members()[1].End)
	}
	lo, hi, err = ParseRange("100-200")
	if err != nil || lo != 100 || hi != 200 {
		t.Fatalf("100-200 = [%d,%d], %v", lo, hi, err)
	}
	for _, bad := range []string{"", "4/4", "5/0", "x/4", "200-100", "-5", "abc"} {
		if _, _, err := ParseRange(bad); err == nil {
			t.Fatalf("ParseRange(%q) accepted", bad)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	it := func(id string, score float64) wire.ResultItem {
		return wire.ResultItem{DocID: id, Score: score}
	}
	lists := [][]wire.ResultItem{
		{it("a", 9), it("c", 5), it("e", 1)},
		{it("b", 7), it("d", 5), it("f", 0.5)},
		{},
		{it("g", 5)},
	}
	got := MergeTopK(lists, 5)
	want := []string{"a", "b", "c", "d", "g"} // ties at 5 break by DocID ascending
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].DocID != w {
			t.Fatalf("pos %d = %q, want %q (full: %+v)", i, got[i].DocID, w, got)
		}
	}
	// k larger than total, k=0, and all-empty inputs.
	if got := MergeTopK(lists, 100); len(got) != 7 {
		t.Fatalf("k=100 len = %d, want 7", len(got))
	}
	if got := MergeTopK(lists, 0); got != nil {
		t.Fatalf("k=0 = %+v", got)
	}
	if got := MergeTopK(nil, 5); len(got) != 0 {
		t.Fatalf("nil lists = %+v", got)
	}
	// A single non-empty list is returned itself, cut to k.
	one := [][]wire.ResultItem{{}, lists[0], nil}
	if got := MergeTopK(one, 2); len(got) != 2 || &got[0] != &lists[0][0] || got[1].DocID != "c" {
		t.Fatalf("single list, k=2 = %+v", got)
	}
	if got := MergeTopK(one, 9); len(got) != 3 {
		t.Fatalf("single list, k=9 len = %d, want 3", len(got))
	}
}
