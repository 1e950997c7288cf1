package lockorderbad

import "sync"

// connWriter mirrors almaproto's sendQueue, the coalescing writer both ends
// of a tagged connection share: producers queue frames under a mutex and hand the writer a single wake
// token through a cap-1 channel. The token send must happen outside the
// critical section — the writer's drain loop takes the same mutex, so a
// send under it deadlocks the connection the moment the token channel
// backs up.
type connWriter struct {
	mu       sync.Mutex
	q        [][]byte
	signaled bool
	wake     chan struct{}
}

// EnqueueWakeUnderLock is the broken shape: the wake token is sent while
// the queue mutex is held.
func (w *connWriter) EnqueueWakeUnderLock(frame []byte) {
	w.mu.Lock()
	w.q = append(w.q, frame)
	if !w.signaled {
		w.signaled = true
		w.wake <- struct{}{} // want lockorder
	}
	w.mu.Unlock()
}

// EnqueueWakeOutsideLock is the fixed shape the data path uses: record
// the false→true signal edge under the mutex, send the token after
// unlocking. The edge guard keeps the cap-1 send from ever blocking.
func (w *connWriter) EnqueueWakeOutsideLock(frame []byte) {
	w.mu.Lock()
	w.q = append(w.q, frame)
	wakeup := !w.signaled
	w.signaled = true
	w.mu.Unlock()
	if wakeup {
		w.wake <- struct{}{}
	}
}
