package shard

import (
	"bufio"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docstore"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakePeer stands in for a shard server: it acknowledges every handshake
// and then hands each frame it reads to answer, whose return value (if any)
// goes back as one frame of the kind it names. A nil answer is the mute
// peer: it keeps reading and never says another word.
func fakePeer(t *testing.T, answer func(wire.Frame) (wire.Kind, []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close() // the router hanging up ends the read below
				r := bufio.NewReader(conn)
				if _, err := wire.ReadFrame(r); err != nil {
					return
				}
				ack := wire.Hello{NodeID: "fake"}
				if wire.WriteFrame(conn, wire.KindHelloAck, ack.AppendTo(nil)) != nil {
					return
				}
				for {
					f, err := wire.ReadFrame(r)
					if err != nil {
						return
					}
					if answer == nil {
						continue
					}
					if kind, b := answer(f); b != nil && wire.WriteFrame(conn, kind, b) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// serveReplica starts one more transport server over shard id's store and
// returns its address.
func (tc *testCluster) serveReplica(t *testing.T, id string) string {
	t.Helper()
	srv := transport.NewServer(id, tc.stores[id])
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func replicaWorld(t *testing.T) (*testCluster, *docstore.Store, []string) {
	docs, g := testCorpus(t, 300)
	mono := memShard(t)
	if err := mono.PutBatch(docs); err != nil {
		t.Fatalf("seed mono: %v", err)
	}
	common := g.Common[0] + " " + g.Common[1] + " " + g.Common[2] // touches every shard
	topical := g.Topics[0].Vocab[0] + " " + g.Topics[0].Vocab[1]
	return startCluster(t, 2, docs), mono, []string{common, topical}
}

// TestReplicaAnswersForMutePrimary: every shard's primary acknowledges the
// handshake and then never answers; the live replica behind it must carry
// the queries as a hedge — the first, cold one that learns the shard's
// figures and the one that is answered — and the answer is the monolith's,
// bit for bit, not partial.
func TestReplicaAnswersForMutePrimary(t *testing.T) {
	tc, mono, queries := replicaWorld(t)
	mute := fakePeer(t, nil)
	for _, mem := range tc.m.Members() {
		tc.m.SetAddrs(mem.ID, mute, mem.Addrs[0])
	}
	r := tc.router(t, Options{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	for _, q := range queries {
		res := r.Ask(q, 10)
		if res.Partial || len(res.Errors) > 0 {
			t.Fatalf("q=%q: partial=%v errors=%v", q, res.Partial, res.Errors)
		}
		if res.Hedges < 1 || res.Hedges != res.Fanout {
			t.Fatalf("q=%q: %d hedges for %d shards asked, every primary is mute", q, res.Hedges, res.Fanout)
		}
		if res.Fanout+res.Pruned != tc.m.Len() {
			t.Fatalf("q=%q: fanout %d + pruned %d != %d shards", q, res.Fanout, res.Pruned, tc.m.Len())
		}
		assertIdentical(t, q, res.Items, mono.SearchText(q, 10))
	}
}

// TestReplicaAnswersForClosedPrimary: the primaries die after the router
// connected, so every call to one fails fast; cold queries and warm ones
// both fall over to the replica and the ask stays whole.
func TestReplicaAnswersForClosedPrimary(t *testing.T) {
	tc, mono, queries := replicaWorld(t)
	for _, mem := range tc.m.Members() {
		tc.m.SetAddrs(mem.ID, mem.Addrs[0], tc.serveReplica(t, mem.ID))
	}
	r := tc.router(t, Options{Telemetry: telemetry.NewRegistry()})
	// Warm on the healthy pair: nothing is hedged while the primary answers.
	if res := r.Ask(queries[0], 10); res.Partial || res.Hedges != 0 {
		t.Fatalf("healthy ask: partial=%v hedges=%d", res.Partial, res.Hedges)
	}
	for _, srv := range tc.servers {
		srv.Close()
	}
	// queries[0] has its statistics cached, queries[1] must learn them
	// through the replica as well.
	for _, q := range queries {
		res := r.Ask(q, 10)
		if res.Partial || len(res.Errors) > 0 {
			t.Fatalf("q=%q: partial=%v errors=%v", q, res.Partial, res.Errors)
		}
		if res.Hedges < 1 {
			t.Fatalf("q=%q: no replica attempt counted", q)
		}
		assertIdentical(t, q, res.Items, mono.SearchText(q, 10))
	}
}

// TestShortStatsReplyIsTheShardsError: a peer whose first correction — the
// reply that teaches a fresh router its figures — carries fewer figures than
// terms asked must cost the ask that shard, visibly — not leave an empty
// cache that bounds the shard to zero and prunes it as hitless.
func TestShortStatsReplyIsTheShardsError(t *testing.T) {
	tc, _, queries := replicaWorld(t)
	short := fakePeer(t, func(f wire.Frame) (wire.Kind, []byte) {
		if f.Kind != wire.KindQuery {
			return 0, nil
		}
		q, err := wire.UnmarshalQuery(f.Payload)
		if err != nil {
			return 0, nil
		}
		resp := wire.QueryResult{QueryID: q.ID, From: "fake", Epoch: 1, Drift: true, Docs: 9, DF: []uint64{1}, MaxRatio: []float64{1}}
		return wire.KindQueryResult, resp.AppendTo(nil)
	})
	tc.m.SetAddrs("shard1", short)
	r := tc.router(t, Options{Telemetry: telemetry.NewRegistry()})
	res := r.Ask(queries[0], 10) // three terms asked, one answered
	if !res.Partial || res.Errors["shard1"] == nil || len(res.Errors) != 1 {
		t.Fatalf("partial=%v errors=%v, want shard1's short reply attributed", res.Partial, res.Errors)
	}
	if res.Fanout != 1 || len(res.Items) == 0 {
		t.Fatalf("fanout=%d items=%d, want the healthy shard's answer", res.Fanout, len(res.Items))
	}
}

// TestReplicaEpochIsNotDrift: a replica is another store with its own epoch
// counter. Figures learnt through one — here after the primaries died, for
// terms not yet held — name an epoch the primary never reported, and used to
// flush everything it had: the next ask of the old terms learnt them again.
// Figures that agree drop nothing, whatever epoch they were read at.
func TestReplicaEpochIsNotDrift(t *testing.T) {
	tc, mono, queries := replicaWorld(t)
	for _, mem := range tc.m.Members() {
		// The same documents put one by one: equal figures, a far later epoch.
		replica := memShard(t)
		var err error
		tc.stores[mem.ID].All(func(d *docstore.Document) bool {
			err = replica.Put(d)
			return err == nil
		})
		if err != nil || replica.Epoch() == tc.stores[mem.ID].Epoch() {
			t.Fatalf("seeding %s's replica: err %v, epoch %d like the primary's", mem.ID, err, replica.Epoch())
		}
		primary := tc.stores[mem.ID]
		tc.stores[mem.ID] = replica
		tc.m.SetAddrs(mem.ID, mem.Addrs[0], tc.serveReplica(t, mem.ID))
		tc.stores[mem.ID] = primary
	}
	reg := telemetry.NewRegistry()
	r := tc.router(t, Options{Telemetry: reg})
	restarts := reg.Counter("shard.scatter.restarts")
	ask := func(label, q string, wantRestarts uint64) {
		t.Helper()
		before := restarts.Value()
		res := r.Ask(q, 10)
		if res.Partial || len(res.Errors) > 0 {
			t.Fatalf("%s: partial=%v errors=%v", label, res.Partial, res.Errors)
		}
		assertIdentical(t, label, res.Items, mono.SearchText(q, 10))
		if got := restarts.Value() - before; got != wantRestarts {
			t.Fatalf("%s: %d restarts, want %d", label, got, wantRestarts)
		}
	}
	ask("primaries, cold", queries[0], 1) // both shards' first figures, one pass
	for _, srv := range tc.servers {
		srv.Close()
	}
	ask("replicas, cold", queries[1], 1) // each dead primary hedged to its replica
	ask("replicas, terms the primaries reported", queries[0], 0)
	if drift := reg.Counter("shard.scatter.epoch.drift").Value(); drift != 0 {
		t.Fatalf("%d drift replies from replicas holding the primaries' figures", drift)
	}
}

// TestDriftingShardIsGivenUpOn: a peer that answers every query with other
// figures than it last reported costs the ask maxDrift queries to it after
// the first, which only taught the router its figures — not a hang: the
// shard is reported as ErrDrift, the ask is partial, and the healthy shard's
// answer is kept.
func TestDriftingShardIsGivenUpOn(t *testing.T) {
	tc, _, queries := replicaWorld(t)
	var asked atomic.Uint64
	drifting := fakePeer(t, func(f wire.Frame) (wire.Kind, []byte) {
		if f.Kind != wire.KindQuery {
			return 0, nil
		}
		q, err := wire.UnmarshalQuery(f.Payload)
		if err != nil || !q.Assumed {
			return 0, nil
		}
		n := asked.Add(1)
		// Ratios no real shard reaches: once its figures are held, this peer
		// is the probe, asked first.
		resp := wire.QueryResult{QueryID: q.ID, From: "fake", Epoch: 1 + n, Drift: true, Docs: q.AssumedDocs + 1, DF: make([]uint64, len(q.StatsTerms)), MaxRatio: make([]float64, len(q.StatsTerms))}
		for i := range q.StatsTerms {
			resp.DF[i], resp.MaxRatio[i] = 1, 100
		}
		return wire.KindQueryResult, resp.AppendTo(nil)
	})
	tc.m.SetAddrs("shard1", drifting)
	reg := telemetry.NewRegistry()
	r := tc.router(t, Options{Timeout: 2 * time.Second, Telemetry: reg})
	start := time.Now()
	res := r.Ask(queries[0], 10)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the ask took %v: it waited out a deadline instead of counting corrections", took)
	}
	if !res.Partial || len(res.Errors) != 1 || !errors.Is(res.Errors["shard1"], ErrDrift) {
		t.Fatalf("partial=%v errors=%v, want shard1 reported as ErrDrift", res.Partial, res.Errors)
	}
	if res.Fanout != 1 || len(res.Items) == 0 || res.Epochs["shard0"] != tc.stores["shard0"].Epoch() || len(res.Epochs) != 1 {
		t.Fatalf("fanout=%d items=%d epochs=%v, want the healthy shard's answer kept", res.Fanout, len(res.Items), res.Epochs)
	}
	if got := asked.Load(); got != 1+maxDrift {
		t.Fatalf("the drifting peer was queried %d times, want first contact + maxDrift = %d", got, 1+maxDrift)
	}
	if drift, restarts := reg.Counter("shard.scatter.epoch.drift").Value(), reg.Counter("shard.scatter.restarts").Value(); drift != maxDrift || restarts != maxDrift {
		t.Fatalf("counted %d drift replies and %d restarts, want %d and %d", drift, restarts, maxDrift, maxDrift)
	}
}

// TestColdAgainIsDrift: a cold shard's first correction in an ask is free —
// it teaches figures nobody held — but one found cold again had this ask's
// figures installed and lost them to a contradicting reply since (another
// ask's, after a write). Its corrections then count: a shard that stays
// cold pass after pass, as under other asks' corrections, is still given
// up on after maxDrift of them, not asked for ever.
func TestColdAgainIsDrift(t *testing.T) {
	tc, _, _ := replicaWorld(t)
	drifting := fakePeer(t, func(f wire.Frame) (wire.Kind, []byte) {
		q, err := wire.UnmarshalQuery(f.Payload)
		if f.Kind != wire.KindQuery || err != nil {
			return 0, nil
		}
		resp := wire.QueryResult{QueryID: q.ID, From: "fake", Drift: true, Docs: q.AssumedDocs + 1, DF: q.AssumedDF, MaxRatio: q.AssumedMaxRatio}
		return wire.KindQueryResult, resp.AppendTo(nil)
	})
	tc.m.SetAddrs("shard1", drifting)
	reg := telemetry.NewRegistry()
	r := tc.router(t, Options{Telemetry: reg})
	terms := []string{"gold"}
	gs := newGlobalQuery(terms, len(r.shards))
	res := Result{Errors: map[string]error{}, Epochs: map[string]uint64{}}
	ms := mergeState{k: 10, res: &res}
	cold := plannedShard{rs: r.shards[1], i: 1, ub: math.Inf(1)}
	for pass := 0; pass <= maxDrift; pass++ {
		clear(cold.rs.stats) // the figures this ask installed, gone again
		f := inflight{plannedShard: cold, call: r.startQuery(0, cold, "gold", &gs, ms.k, nil)}
		drifted := r.collect(&f, "gold", &gs, &ms)
		if want := pass < maxDrift; drifted != want || (res.Errors["shard1"] == nil) == !want {
			t.Fatalf("correction %d: drifted=%v errors=%v, want the shard given up on after 1 + maxDrift", pass, drifted, res.Errors)
		}
		if got := reg.Counter("shard.scatter.epoch.drift").Value(); got != uint64(pass) {
			t.Fatalf("correction %d: %d counted as drift, want %d", pass, got, pass)
		}
	}
	if !errors.Is(res.Errors["shard1"], ErrDrift) {
		t.Fatalf("shard1: %v, want ErrDrift", res.Errors["shard1"])
	}
}
