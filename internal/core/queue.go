package core

import (
	"container/heap"
	"sync"
)

// MsgQueue is the message ordering both executors share: messages come
// out in priority order (smaller Prio first) with FIFO order among equal
// priorities — the "message queue in either FIFO or priority order" of
// the paper's §4.
//
// The implementation is two lanes sharing one (Prio, seq) ordering
// contract. Default-priority messages — the overwhelming majority of
// application traffic — land in a ring-buffer FIFO lane that costs one
// index bump per push and pop; only prioritized and runtime protocol
// messages pay for a binary heap. A pop compares the lane heads under the
// shared (Prio, seq) order, so the observable ordering is identical to a
// single heap over all messages. Push assigns monotonically increasing
// sequence numbers, which both provides the FIFO tie-break and makes
// ordering deterministic for the virtual-time executor.
//
// MsgQueue is not synchronized. The virtual-time executor holds one by
// value per PE, touched only by the shard that owns the PE; the real-time
// runtime wraps it in a Queue.
type MsgQueue struct {
	fifo msgRing // Prio == 0 lane
	h    msgHeap // Prio != 0 lane
	seq  uint64
}

// msgRing is a growable circular FIFO of messages.
type msgRing struct {
	buf  []*Message
	head int // index of the front message
	n    int // number of queued messages
}

func (r *msgRing) push(m *Message) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

func (r *msgRing) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]*Message, newCap) // power-of-two capacity keeps index math a mask
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

func (r *msgRing) front() *Message { return r.buf[r.head] }

func (r *msgRing) pop() *Message {
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return m
}

type msgHeap []*Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].Prio != h[j].Prio {
		return h[i].Prio < h[j].Prio
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(*Message)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Push enqueues a message, assigning its FIFO sequence number, and
// reports the resulting queue depth.
func (q *MsgQueue) Push(m *Message) int {
	q.seq++
	m.seq = q.seq
	if m.Prio == 0 {
		q.fifo.push(m)
	} else {
		heap.Push(&q.h, m)
	}
	return q.Len()
}

// Len reports the number of queued messages.
func (q *MsgQueue) Len() int { return q.fifo.n + len(q.h) }

// Pop removes the (Prio, seq)-least message across both lanes, returning
// nil when the queue is empty.
func (q *MsgQueue) Pop() *Message {
	if len(q.h) == 0 {
		if q.fifo.n == 0 {
			return nil
		}
		return q.fifo.pop()
	}
	if q.fifo.n == 0 {
		return heap.Pop(&q.h).(*Message)
	}
	hp, fp := q.h[0], q.fifo.front()
	if hp.Prio < fp.Prio || (hp.Prio == fp.Prio && hp.seq < fp.seq) {
		return heap.Pop(&q.h).(*Message)
	}
	return q.fifo.pop()
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
// then drains deliverable messages — in (Prio, seq) order — into the
// spare capacity of into (at least one), all under one lock acquisition.
// It appends to into and returns the extended slice; the result is empty
// only once the queue is closed and drained. Callers bound the burst with
// into's capacity.
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

// Close marks the queue closed and wakes all blocked poppers. Messages
// already queued remain poppable via PopBatch.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
