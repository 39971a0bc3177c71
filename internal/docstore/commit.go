package docstore

import (
	"errors"
	"time"
)

// Group-commit pipeline, the one write path. Writers stage marshalled records
// into a commit queue and a single committer goroutine drains it in windows,
// appending every staged record and amortizing ONE fsync across all writers
// waiting in the window. Each Put/Delete still returns only after its record
// is durable per Options.SyncEveryPut — the ack is deferred, never the
// durability. An in-memory store runs the same window code with no queue, no
// goroutine and no WAL: each writer commits its own request (see submit).
//
// Ordering contract (the repo's determinism contract extended to the write
// path): WAL record order == the order a window's ops are folded into the
// published snapshot == snapshot publish (epoch) order == queue arrival
// order. A window is processed front to back for both the append pass and the
// fold, so replaying the log is byte-identical to replaying the same
// operations through a fully serialized writer.
//
// Natural batching: the committer never waits for a window to fill. While it
// is fsyncing window N, concurrent writers queue up and become window N+1 —
// under contention windows grow to the number of waiting writers with no
// added latency for the uncontended single-writer case.

// stagedOp is one marshalled write, prepared by the writer goroutine so the
// CPU work (Clone, marshal, tokenize) runs in parallel outside the committer.
type stagedOp struct {
	op      uint8
	payload []byte    // marshalled document (put) or raw id bytes (delete); released once logged
	doc     *Document // put: the already-cloned document to install
	tokens  []string  // put: precomputed tokens; the fold sorts them in place, then releases them
	id      string    // delete: target id
	skip    bool      // set by the committer: delete of a dead id, not logged
}

// commitReq is one writer's stake in a window: its ops, the error slot the
// committer fills, and the done channel the writer blocks on. A Put or
// Delete stages exactly one op; PutBatch stages all of its ops in one
// request so the batch rides a single commit window end-to-end.
type commitReq struct {
	ops  []stagedOp
	at   time.Time // enqueue time, for sync-wait/commit-latency telemetry
	err  error
	done chan struct{}
}

// maxCommitWindow bounds how many staged ops one window may carry so a
// steady flood of writers cannot starve the ack of the window's first
// waiter. A single oversized PutBatch still commits as one window.
const maxCommitWindow = 1024

// commitQueueDepth is the staging channel's buffer; writers beyond it block
// in submit (backpressure), which is the admission control.
const commitQueueDepth = 256

// startCommitter launches the committer goroutine. Only durable stores run
// one: simulations open hundreds of in-memory stores nobody closes, so those
// commit in the writer's goroutine instead (see submit). The goroutine is
// join-tracked by committerWG and joined in Close.
func (s *Store) startCommitter() {
	s.commits = make(chan *commitReq, commitQueueDepth)
	s.committerWG.Add(1)
	go func() {
		defer s.committerWG.Done()
		s.commitLoop()
	}()
}

// submit is the only write entry: it hands the staged ops to the committer as
// one request — or, on an in-memory store, commits it here as a window of one
// — and blocks until its window is durable and published. The closeMu
// read-lock makes the closed check and the hand-off atomic with respect to
// Close, which takes the write lock before closing the channel — so a send on
// a closed channel (or a write landing after Close returned) cannot happen.
func (s *Store) submit(ops []stagedOp, start time.Time) error {
	req := &commitReq{ops: ops, at: start, done: make(chan struct{})}
	s.closeMu.RLock()
	if s.closed.Load() {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	if s.commits == nil {
		s.commitWindow([]*commitReq{req})
	} else {
		s.commits <- req
	}
	s.closeMu.RUnlock()
	<-req.done
	return req.err
}

// commitLoop drains the staging queue window by window until the channel is
// closed (Close drains every already-queued request before the loop exits,
// so no writer is ever left blocked on done).
func (s *Store) commitLoop() {
	for first := range s.commits {
		window := make([]*commitReq, 1, 8)
		window[0] = first
		n := len(first.ops)
	fill:
		for n < maxCommitWindow {
			select {
			case r, ok := <-s.commits:
				if !ok {
					break fill
				}
				window = append(window, r)
				n += len(r.ops)
			default:
				break fill
			}
		}
		s.tel.queueDepth.Set(float64(len(window) + len(s.commits)))
		s.commitWindow(window)
	}
}

// commitWindow appends every staged record in arrival order, makes the
// window durable with one flush/fsync, then publishes the ops, folded in the
// same order, before acking all waiters. Holding Store.mu across the window
// keeps the log and the published snapshot mutually consistent (compaction
// pins exactly that consistency point), and makes the snapshot loaded here
// the one the window's successor is built from. An
// in-memory store skips only the WAL steps and their docstore.wal.*
// instruments. The guard is Options.Dir, not s.log: a durable store that
// lost its log must keep failing loudly, never start acking unlogged writes.
func (s *Store) commitWindow(window []*commitReq) {
	durable := s.opts.Dir != ""
	s.mu.Lock()
	cur := s.snap.Load()
	var wErr error
	var puts, deletes uint64
	// winLive tracks liveness of ids touched earlier in this same window,
	// so a Delete sequenced after a Put of the same id in one window
	// resolves exactly as it would under a serialized writer.
	var winLive map[string]bool
	for _, req := range window {
		for i := range req.ops {
			op := &req.ops[i]
			if op.op == opDelete {
				alive, seen := winLive[op.id]
				if !seen {
					alive = cur.getDoc(op.id) != nil
				}
				if !alive {
					op.skip = true
					req.err = ErrNotFound
					continue
				}
			}
			if durable && wErr == nil {
				wErr = s.log.append(op.op, op.payload)
				op.payload = nil // logged: the window's fold and freeze do not hold its records
			}
			if wErr != nil {
				continue
			}
			if winLive == nil {
				winLive = make(map[string]bool, 8)
			}
			if op.op == opPut {
				puts++
				winLive[op.doc.ID] = true
			} else {
				deletes++
				winLive[op.id] = false
			}
		}
	}
	staged := int(puts + deletes)
	if durable && wErr == nil && staged > 0 {
		if s.opts.SyncEveryPut {
			if wErr = s.log.sync(); wErr == nil {
				s.tel.walSyncs.Inc()
			}
		} else {
			wErr = s.log.flush()
		}
	}
	if wErr == nil {
		// Publish the whole window, folded in WAL order, as ONE epoch: the
		// publish amortizes its overlay clone across the window just as the
		// fsync above amortizes the disk round trip. The window becomes
		// visible atomically, after it is durable.
		s.puts.Add(puts)
		s.tel.puts.Add(puts)
		s.deletes.Add(deletes)
		s.tel.deletes.Add(deletes)
		s.publishWindowLocked(cur, window, staged)
		if durable {
			s.walBytes.Store(s.log.size)
			s.maybeCompactLocked()
		}
	}
	s.mu.Unlock()
	if durable {
		s.tel.walWindows.Inc()
		s.tel.walGroupSize.Add(uint64(staged))
	}
	now := time.Now()
	for _, req := range window {
		if req.err == nil {
			req.err = wErr
		}
		wait := now.Sub(req.at)
		if durable {
			s.tel.walSyncWaitUs.Add(uint64(wait.Microseconds()))
		}
		s.tel.commitLat.Observe(wait)
		close(req.done)
	}
}

// maybeCompactLocked fires the background compactor when the WAL has
// outgrown its budget. Compaction runs off the writer critical path: the
// goroutine builds the replacement snapshot from an immutable epoch snapshot
// and takes Store.mu only to pin the start point and to swap files at the
// end. Join-tracked by compactWG, joined in Close; at most one compaction
// runs at a time (the compacting flag).
func (s *Store) maybeCompactLocked() {
	if s.opts.CompactAfterBytes <= 0 || s.log.size <= s.opts.CompactAfterBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		// Loop until the WAL is back under budget: writes landing while a
		// cycle builds can leave the tail over the line with no further
		// commit window around to retrigger.
		for {
			if err := s.compactOnce(); err != nil {
				if !errors.Is(err, ErrClosed) {
					// Background failure must stay visible: the counter
					// feeds the debug endpoints.
					s.tel.compactErrors.Inc()
				}
				return
			}
			s.mu.Lock()
			again := !s.closed.Load() && s.log != nil && s.log.size > s.opts.CompactAfterBytes
			s.mu.Unlock()
			if !again {
				return
			}
		}
	}()
}
