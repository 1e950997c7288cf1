package almaproto

import (
	"io"
	"net"
	"sync"

	"almanac/internal/obs"
)

// sendQueue is the output half of a tagged connection, on either end:
// producers hand it items, a dedicated writer goroutine drains everything
// queued since its last wakeup, turns each item into a finished wire
// frame, and flushes the lot with as few Writes as possible — the same
// batch-drain shape as the array's shard workers, applied to the wire.
//
// The client queues built request frames. The server queues wireItems,
// whose ready hook is where a pending OpBatch is completed (see
// taggedConn.frameOf), so a batch waits for its shard commands on the
// writer goroutine and never on the reader.
//
// The wake protocol keeps every channel operation outside the queue
// mutex (the lockorder rule proves this package free of channel ops
// under locks): enqueue appends under mu, and only the false→true edge
// of signaled sends the single wake token, so the cap-1 send never
// blocks and the writer never misses work.
type sendQueue[T any] struct {
	conn io.Writer
	pool *framePool     // flushed frames return here
	wire *obs.WireStats // transport counters; nil on the client
	// ready turns a drained item into its finished wire frame; flushed
	// runs after each drained batch of n items with the flush's failure,
	// if that flush is the one that failed. Both run on the writer
	// goroutine.
	ready   func(T) *frameBuf
	flushed func(n int, err error)
	wake    chan struct{} // cap 1; at most one token outstanding (signaled)
	done    chan struct{} // closed when the writer goroutine exits

	mu       sync.Mutex
	q        []T
	signaled bool
	stopped  bool

	// Writer-goroutine-owned reusable state.
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

// enqueue hands the writer one item. It reports false, queueing nothing,
// once the queue has been stopped. Safe from any goroutine.
func (q *sendQueue[T]) enqueue(it T) bool {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.q = append(q.q, it)
	wakeup := !q.signaled
	q.signaled = true
	q.mu.Unlock()
	if wakeup {
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
