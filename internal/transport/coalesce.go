package transport

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// errCoalescerClosed reports a stage after Close.
var errCoalescerClosed = errors.New("transport: connection closed")

// maxStagingBuf bounds how much staging capacity a connection retains after
// a flush; a batch that grew past this (a burst of large results) is
// released back to the allocator rather than pinned forever.
const maxStagingBuf = 1 << 20

// coalescer batches frame writes on one connection using the same
// leader/follower shape as the WAL group commit: a sender that finds no
// flush in flight becomes the leader and issues the Write from its own
// goroutine; senders that stage while the leader's syscall is in flight
// return immediately, and the leader loops to carry their frames in the
// next Write — one syscall per batch, not per frame. Flush-on-idle is
// structural: a lone frame under light load goes out synchronously on the
// stager's own goroutine, exactly like the unbatched path. Batching
// emerges only while a Write is already in flight, which is exactly when
// it pays.
//
// Leader-flush rather than a dedicated flusher goroutine matters on small
// hosts: handing every frame to another goroutine costs a scheduler
// wakeup per syscall, and when a CPU-bound epoch freeze is hogging the
// only core each handoff can stall for a full preemption quantum — the
// tail of every ask racing an ingest. The leader path keeps the idle-link
// frame count at zero handoffs, same as writing the socket directly.
//
// The two staging buffers ping-pong: while the leader writes one, senders
// append to the other, so the steady state stages frames with zero
// allocations (wire.AppendFrame + the append-style marshals).
type coalescer struct {
	w io.Writer

	mu       sync.Mutex
	idle     sync.Cond // signalled when flushing drops to false
	buf      []byte    // frames staged since the last swap
	spare    []byte    // buffer the leader returns for reuse
	err      error     // first write error, sticky
	closed   bool
	flushing bool // a leader is draining the staging buffer

	// frames staged / Write syscalls issued, for the syscalls-per-frame
	// trajectory in E27 and the coalescer tests.
	frames  atomic.Uint64
	flushes atomic.Uint64
}

func newCoalescer(w io.Writer) *coalescer {
	q := &coalescer{w: w}
	q.idle.L = &q.mu
	return q
}

// stage appends one framed message to the staging buffer and ensures a
// flush is in motion: the caller becomes the leader if none is active.
// The message is fully encoded before stage returns, so callers may pass
// Appenders whose fields alias reused buffers (FrameReader payloads) —
// nothing is retained.
func (q *coalescer) stage(kind wire.Kind, m wire.Appender) error {
	q.mu.Lock()
	if err := q.stageErr(); err != nil {
		q.mu.Unlock()
		return err
	}
	q.buf = wire.AppendFrame(q.buf, kind, m)
	q.frames.Add(1)
	return q.flushLocked()
}

// stageBytes is stage for the frames whose payload is raw bytes, not a
// message (ping, pong, unsubscribe).
func (q *coalescer) stageBytes(kind wire.Kind, payload []byte) error {
	q.mu.Lock()
	if err := q.stageErr(); err != nil {
		q.mu.Unlock()
		return err
	}
	q.buf = wire.EncodeFrame(q.buf, kind, payload)
	q.frames.Add(1)
	return q.flushLocked()
}

// stageErr reports why staging is refused; callers hold q.mu.
func (q *coalescer) stageErr() error {
	if q.closed {
		return errCoalescerClosed
	}
	return q.err
}

// flushLocked is called with q.mu held and releases it. If a leader is
// already draining, the staged frame rides that leader's next Write and
// the caller returns immediately (its write error, if any, surfaces on a
// later stage or on close — same fire-and-forget contract as before). If
// the link is idle the caller takes the leader role: swap the staging
// buffer, Write it without the lock, and loop until nothing new was
// staged during the syscall.
func (q *coalescer) flushLocked() error {
	if q.flushing {
		q.mu.Unlock()
		return nil
	}
	q.flushing = true
	for len(q.buf) > 0 && q.err == nil {
		batch := q.buf
		q.buf = q.spare[:0]
		q.spare = nil
		q.mu.Unlock()

		// Count before writing: once Write returns, the peer may already be
		// acting on the reply, and whatever it reads next — these counters
		// included — must account for the flush that carried it.
		q.flushes.Add(1)
		_, err := q.w.Write(batch)

		q.mu.Lock()
		if err != nil && q.err == nil {
			q.err = err
		}
		if cap(batch) <= maxStagingBuf {
			q.spare = batch[:0]
		}
	}
	if q.err != nil {
		q.buf = q.buf[:0] // the connection is dead; drop what's staged
	}
	q.flushing = false
	err := q.err
	q.idle.Broadcast()
	q.mu.Unlock()
	return err
}

// close waits for any in-flight leader to drain the staged frames, then
// returns the connection's sticky write error, if any. No frame staged
// before close is lost: a non-empty staging buffer always has an active
// leader (stage never returns without one), so once the leader exits the
// buffer is either fully written or abandoned to a sticky error.
func (q *coalescer) close() error {
	q.mu.Lock()
	q.closed = true
	for q.flushing {
		q.idle.Wait()
	}
	err := q.err
	q.mu.Unlock()
	return err
}

// WireStats counts traffic through one coalesced connection: Frames staged
// and Flushes (Write syscalls) that carried them. Flushes/Frames < 1 is
// the batching win; == 1 means every frame went out alone (idle link).
type WireStats struct {
	Frames  uint64
	Flushes uint64
}

func (q *coalescer) stats() WireStats {
	return WireStats{Frames: q.frames.Load(), Flushes: q.flushes.Load()}
}
