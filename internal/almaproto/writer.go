package almaproto

import (
	"io"
	"net"
	"sync"

	"almanac/internal/obs"
)

// sendQueue is the output half of a tagged connection, on either end:
// producers hand it items, and whoever holds the write side turns each
// item into a finished wire frame and flushes it. Under load that is the
// dedicated writer goroutine, which drains everything queued since its
// last wakeup and flushes the lot with as few Writes as possible — the
// same batch-drain shape as the array's shard workers, applied to the
// wire. A frame alone on its connection is flushed by its producer
// instead: enqueue's alone argument says nothing else is in flight on the
// connection, and if the writer is parked too, the producer takes the
// write side for that one frame and the writer is never woken. A
// synchronous request therefore crosses no goroutine on its way out.
//
// The deadlock rule is why alone is the condition and not merely "the
// writer is parked". A producer that writes is a goroutine that is not
// reading, and on a transport with no buffer (net.Pipe) a Write returns
// only when the peer reads. Flushing inline whenever the writer is idle
// hangs a pipelining client: its Submit blocks writing request k until the
// server reads it, the server's reader is itself blocked writing response
// 1 until the client reads that, and the client will not read before
// Submit returns. With nothing else in flight the peer has nothing to
// write and is certainly reading; in every other state the frame goes to
// the writer goroutine, which may block without holding up anyone's reads.
//
// The client queues built request frames. The server queues wireItems,
// whose ready hook is where a pending OpBatch is completed (see
// taggedConn.frameOf): under load a batch waits for its shard commands on
// the writer goroutine and never on the reader.
//
// The wake protocol keeps every channel operation outside the queue
// mutex (the lockorder rule proves this package free of channel ops
// under locks). signaled means the write side is held — by the writer,
// awake or about to be, or by an inline producer; false means the queue
// is empty and the writer is parked on wake. enqueue appends under mu,
// and only the false→true edge of signaled sends the single wake token,
// so the cap-1 send never blocks and the writer never misses work. An
// inline producer makes that edge without sending the token, and sends it
// when it is done only if work (or a stop) arrived behind it.
type sendQueue[T any] struct {
	conn io.Writer
	pool *framePool     // flushed frames return here
	wire *obs.WireStats // transport counters; nil on the client
	// ready turns a drained item into its finished wire frame; flushed
	// runs after each drained batch of n items with the flush's failure,
	// if that flush is the one that failed. Both run on whoever holds the
	// write side.
	ready   func(T) *frameBuf
	flushed func(n int, err error)
	wake    chan struct{} // cap 1; at most one token outstanding (signaled)
	done    chan struct{} // closed when the writer goroutine exits

	mu       sync.Mutex
	q        []T
	signaled bool
	stopped  bool

	// Reusable state owned by the holder of the write side.
	batch   []T
	frames  []*frameBuf
	scratch []byte
	nbufs   net.Buffers
	failed  bool // a flush failed; later items are made ready but not written
}

func newSendQueue[T any](conn io.Writer, pool *framePool, wire *obs.WireStats,
	ready func(T) *frameBuf, flushed func(n int, err error)) *sendQueue[T] {
	q := &sendQueue[T]{
		conn: conn, pool: pool, wire: wire, ready: ready, flushed: flushed,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go q.run()
	return q
}

// enqueue sends one item: through the writer goroutine, or — when alone
// says nothing else is in flight on the connection and the writer is
// parked — flushed here, before enqueue returns. It reports false, sending
// nothing, once the queue has been stopped. Safe from any goroutine.
func (q *sendQueue[T]) enqueue(it T, alone bool) bool {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	idle := !q.signaled // nothing queued, writer parked: the write side is free
	q.signaled = true
	inline := alone && idle
	if !inline {
		q.q = append(q.q, it)
	}
	q.mu.Unlock()
	if !inline {
		if idle {
			q.wake <- struct{}{}
		}
		return true
	}
	q.batch = append(q.batch[:0], it)
	q.flush()
	// Give the write side back. Whatever was queued behind the inline
	// frame did not wake the writer (signaled was set), so it is woken now.
	q.mu.Lock()
	handoff := len(q.q) > 0 || q.stopped
	q.signaled = handoff
	q.mu.Unlock()
	if handoff {
		q.wake <- struct{}{}
	}
	return true
}

// stop tells the writer to exit once the queue is drained and waits for
// it; items enqueued before stop are still flushed. Idempotent and safe
// from any goroutine.
func (q *sendQueue[T]) stop() {
	q.mu.Lock()
	q.stopped = true
	wakeup := !q.signaled
	q.signaled = true
	q.mu.Unlock()
	if wakeup {
		q.wake <- struct{}{}
	}
	<-q.done
}

func (q *sendQueue[T]) run() {
	defer close(q.done)
	for range q.wake {
		for {
			q.mu.Lock()
			if len(q.q) == 0 {
				q.signaled = false
				stopped := q.stopped
				q.mu.Unlock()
				if stopped {
					return
				}
				break
			}
			q.batch = append(q.batch[:0], q.q...)
			clear(q.q)
			q.q = q.q[:0]
			q.mu.Unlock()
			q.flush()
		}
	}
}

// flush makes one drained batch ready and writes it. Every item is made
// ready even after a write failure — the server's batches must be
// collected from the shard queues and its window slots must keep flowing
// so a reader blocked on the window can reach its own read error and
// hang up.
func (q *sendQueue[T]) flush() {
	q.frames = q.frames[:0]
	for _, it := range q.batch {
		q.frames = append(q.frames, q.ready(it))
	}
	var err error
	if !q.failed {
		err = flushFrames(q.conn, q.frames, &q.scratch, &q.nbufs, q.wire)
		q.failed = err != nil
	}
	for _, fb := range q.frames {
		q.pool.release(fb)
	}
	clear(q.frames)
	n := len(q.batch)
	clear(q.batch)
	q.flushed(n, err)
}
