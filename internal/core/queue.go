package core

import "sync"

// MsgQueue is the message order both executors share: a FIFO, the "message
// queue in either FIFO or priority order" of the paper's §4 in its FIFO
// form. It is a growable ring buffer whose push and pop each cost one
// index bump; its order depends only on the order of pushes, which keeps
// the virtual-time executor deterministic.
//
// MsgQueue is not synchronized. The virtual-time executor holds one by
// value per PE, touched only by the shard that owns the PE; the real-time
// runtime wraps it in a Queue.
type MsgQueue struct {
	buf  []*Message
	head int // index of the front message
	n    int // number of queued messages
}

// Push enqueues a message and reports the resulting queue depth.
func (q *MsgQueue) Push(m *Message) int {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
	return q.n
}

func (q *MsgQueue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]*Message, newCap) // power-of-two capacity keeps index math a mask
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Len reports the number of queued messages.
func (q *MsgQueue) Len() int { return q.n }

// Pop removes the oldest message, returning nil when the queue is empty.
func (q *MsgQueue) Pop() *Message {
	if q.n == 0 {
		return nil
	}
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

// Queue is a real-time PE's message queue: a MsgQueue behind a mutex, with
// a condition variable so the scheduler can block for work. Push and
// PopBatch take the lock once each; PopBatch drains a burst per
// acquisition.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       MsgQueue
	waiters int
	closed  bool
}

// NewQueue builds an empty open queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a message and reports the resulting queue depth (0 if the
// push was dropped) so the caller can maintain a high-water mark without a
// second lock acquisition. Pushing to a closed queue is a no-op (shutdown
// races drop cleanly). A waiting popper is woken only when one exists; the
// common push-to-busy-PE case pays no futex call.
func (q *Queue) Push(m *Message) int {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0
	}
	depth := q.q.Push(m)
	wake := q.waiters > 0
	q.mu.Unlock()
	if wake {
		q.cond.Signal()
	}
	return depth
}

// PopBatch blocks until a message is available or the queue is closed,
// then moves the oldest messages, in push order, into the spare capacity
// of into (at least one), all under one lock acquisition. It appends to
// into and returns the extended slice; the result is empty only once the
// queue is closed. Callers bound the burst with into's capacity.
func (q *Queue) PopBatch(into []*Message) []*Message {
	max := cap(into) - len(into)
	if max <= 0 {
		max = 1
	}
	q.mu.Lock()
	for q.q.Len() == 0 && !q.closed {
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
	for i := 0; i < max && q.q.Len() > 0; i++ {
		into = append(into, q.q.Pop())
	}
	q.mu.Unlock()
	return into
}

// Len reports the number of queued messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	n := q.q.Len()
	q.mu.Unlock()
	return n
}

// Close discards every queued message, refuses later pushes and wakes all
// blocked poppers: from then on PopBatch returns an empty batch at once.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.q = MsgQueue{}
	q.mu.Unlock()
	q.cond.Broadcast()
}
