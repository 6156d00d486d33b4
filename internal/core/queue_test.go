package core

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// queueKinds runs one ordering table against both queue types: the
// unsynchronized MsgQueue the virtual-time executor holds, and the locked
// Queue the real-time scheduler drains through PopBatch. pop returns nil
// once the queue is empty.
var queueKinds = []struct {
	name string
	new  func() (push func(*Message), pop func() *Message)
}{
	{"MsgQueue", func() (func(*Message), func() *Message) {
		q := &MsgQueue{}
		return func(m *Message) { q.Push(m) }, q.Pop
	}},
	{"Queue", func() (func(*Message), func() *Message) {
		q := NewQueue()
		return func(m *Message) { q.Push(m) }, func() *Message {
			if q.Len() == 0 {
				return nil
			}
			return q.PopBatch(make([]*Message, 0, 1))[0]
		}
	}},
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	for _, k := range queueKinds {
		t.Run(k.name, func(t *testing.T) {
			push, pop := k.new()
			for i := 0; i < 10; i++ {
				push(&Message{Entry: EntryID(i)})
			}
			for i := 0; i < 10; i++ {
				m := pop()
				if m == nil || m.Entry != EntryID(i) {
					t.Fatalf("pop %d: got %v", i, m)
				}
			}
			if pop() != nil {
				t.Fatal("pop from empty queue returned a message")
			}
		})
	}
}

// Property: over any interleaving of pushes and pops, every pop returns
// the oldest message still queued. Pops interleaved with pushes move the
// ring's head, so later pushes wrap around its end; two pushes per pop
// on average fill the 16-slot ring, so grows copy a wrapped ring.
func TestQueueOrderProperty(t *testing.T) {
	for _, k := range queueKinds {
		t.Run(k.name, func(t *testing.T) {
			prop := func(ops []uint8) bool {
				push, pop := k.new()
				var next, want EntryID
				for _, op := range ops {
					if op%3 != 0 {
						push(&Message{Entry: next})
						next++
						continue
					}
					m := pop()
					if want == next {
						if m != nil {
							return false
						}
						continue
					}
					if m == nil || m.Entry != want {
						return false
					}
					want++
				}
				for ; want < next; want++ {
					if m := pop(); m == nil || m.Entry != want {
						return false
					}
				}
				return pop() == nil
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// popOne blocks in PopBatch for a single message; nil means the queue is
// closed.
func popOne(q *Queue) *Message {
	if b := q.PopBatch(make([]*Message, 0, 1)); len(b) == 1 {
		return b[0]
	}
	return nil
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue()
	done := make(chan *Message, 1)
	go func() { done <- popOne(q) }()
	select {
	case <-done:
		t.Fatal("PopBatch returned without a message")
	case <-time.After(10 * time.Millisecond):
	}
	q.Push(&Message{Entry: 7})
	select {
	case m := <-done:
		if m.Entry != 7 {
			t.Fatalf("got entry %d", m.Entry)
		}
	case <-time.After(time.Second):
		t.Fatal("PopBatch never unblocked")
	}
}

// TestQueueCloseDiscards: a closed queue delivers nothing it still holds,
// and a push to it is a no-op.
func TestQueueCloseDiscards(t *testing.T) {
	q := NewQueue()
	q.Push(&Message{Entry: 1})
	q.Push(&Message{Entry: 2})
	q.Close()
	if m := popOne(q); m != nil {
		t.Fatalf("closed queue delivered %v", m)
	}
	if d := q.Push(&Message{Entry: 3}); d != 0 || q.Len() != 0 {
		t.Errorf("push after close enqueued (depth %d, len %d)", d, q.Len())
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue()
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(&Message{Entry: EntryID(p*perProducer + i)})
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[EntryID]bool)
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			batch := make([]*Message, 0, 4)
			for {
				batch = q.PopBatch(batch[:0])
				if len(batch) == 0 {
					return
				}
				mu.Lock()
				for _, m := range batch {
					if seen[m.Entry] {
						t.Errorf("duplicate delivery of %d", m.Entry)
					}
					seen[m.Entry] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Errorf("delivered %d messages, want %d", len(seen), producers*perProducer)
	}
}

// TestQueuePopBatchCapacityBound: PopBatch never exceeds the spare
// capacity of into, and leaves the remainder queued.
func TestQueuePopBatchCapacityBound(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		q.Push(&Message{Entry: EntryID(i)})
	}
	batch := q.PopBatch(make([]*Message, 0, 4))
	if len(batch) != 4 {
		t.Fatalf("batch of %d, want 4", len(batch))
	}
	if q.Len() != 6 {
		t.Fatalf("queue holds %d, want 6", q.Len())
	}
	for i, m := range batch {
		if m.Entry != EntryID(i) {
			t.Fatalf("batch[%d]: entry %d", i, m.Entry)
		}
	}
	// A full slice still yields one message so the scheduler always
	// makes progress.
	one := q.PopBatch(make([]*Message, 0))
	if len(one) != 1 || one[0].Entry != 4 {
		t.Fatalf("zero-capacity batch: %v", one)
	}
}

// TestQueuePopBatchBlocksAndCloses: PopBatch blocks on empty, wakes on
// push, and returns an empty slice once closed.
func TestQueuePopBatchBlocksAndCloses(t *testing.T) {
	q := NewQueue()
	done := make(chan []*Message, 1)
	go func() { done <- q.PopBatch(make([]*Message, 0, 8)) }()
	select {
	case <-done:
		t.Fatal("PopBatch returned without a message")
	case <-time.After(10 * time.Millisecond):
	}
	q.Push(&Message{Entry: 9})
	select {
	case batch := <-done:
		if len(batch) != 1 || batch[0].Entry != 9 {
			t.Fatalf("got %v", batch)
		}
	case <-time.After(time.Second):
		t.Fatal("PopBatch never unblocked")
	}
	q.Close()
	if batch := q.PopBatch(make([]*Message, 0, 8)); len(batch) != 0 {
		t.Fatalf("closed queue returned %v", batch)
	}
}

// Property: splitting a workload into arbitrary-size batch drains of a
// Queue yields the same order as single pops of a MsgQueue.
func TestQueuePopBatchEquivalenceProperty(t *testing.T) {
	prop := func(n uint8, caps []uint8) bool {
		var single MsgQueue
		batched := NewQueue()
		for i := 0; i < int(n); i++ {
			single.Push(&Message{Entry: EntryID(i)})
			batched.Push(&Message{Entry: EntryID(i)})
		}
		var a, b []*Message
		for m := single.Pop(); m != nil; m = single.Pop() {
			a = append(a, m)
		}
		for ci := 0; batched.Len() > 0; ci++ {
			c := 1
			if len(caps) > 0 {
				c = int(caps[ci%len(caps)])%8 + 1
			}
			b = append(b, batched.PopBatch(make([]*Message, 0, c))...)
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Entry != b[i].Entry {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockMapCoversAllPEs(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{16, 4}, {7, 3}, {64, 64}, {3, 8}} {
		counts := make([]int, tc.p)
		for i := 0; i < tc.n; i++ {
			pe := BlockMap(i, tc.n, tc.p)
			if pe < 0 || pe >= tc.p {
				t.Fatalf("BlockMap(%d,%d,%d) = %d out of range", i, tc.n, tc.p, pe)
			}
			counts[pe]++
		}
		// Block mapping is contiguous and monotone.
		last := 0
		for i := 0; i < tc.n; i++ {
			pe := BlockMap(i, tc.n, tc.p)
			if pe < last {
				t.Fatalf("BlockMap not monotone at %d", i)
			}
			last = pe
		}
		sort.Ints(counts)
		if tc.n >= tc.p && counts[0] == 0 {
			t.Errorf("n=%d p=%d: some PE got no elements", tc.n, tc.p)
		}
	}
}
