package taskfarm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gridmdo/internal/core"
)

// Serve-mode farming: the farm as a long-running service instead of a
// fixed batch. A Params with Serve set builds the same topology (root,
// dispatcher shards, workers) but starts with an empty task space
// and never exits on its own; task ranges enter through a Service bound
// to the live runtime, riding the same rt.Post path the elastic Notifier
// uses for membership events. The shards treat injected ranges exactly
// like statically owned ones — prefetch pipelining, batching, and work
// stealing all apply — so an externally fed farm masks latency the same
// way a batch farm does.

// Submitter accepts externally generated tasks into a live farm. The
// gate package's ingest loop depends on this shape (structurally, not
// nominally), so anything that can allocate contiguous task sequence
// numbers and get them executed can stand in for a real farm in tests.
type Submitter interface {
	// Submit injects n tasks and returns the sequence number of the
	// first; the tasks occupy [lo, lo+n). It is safe to call from any
	// goroutine.
	Submit(n int) (lo int64, err error)
}

// Service is the ingest front of a serve farm. It allocates task
// sequence numbers, posts submissions round-robin onto the dispatcher
// shards, and routes per-task completions (delivered to the root chare
// via Params.OnTaskDone) back to the embedding process's callback.
//
// Construction order mirrors the elastic Notifier: NewService wires
// itself into the Params before BuildProgram consumes them, then Bind
// attaches the runtime once it exists. Submissions before Bind fail
// rather than queue — the caller owns buffering (the gate's admission
// queues do exactly that).
type Service struct {
	p *Params

	mu   sync.Mutex
	rt   *core.Runtime
	next int64    // next unallocated task seq
	rr   int      // round-robin shard cursor
	done []uint64 // completion bitmap, indexed by seq

	onResult atomic.Pointer[func(seq int64, value float64)]

	completed atomic.Int64
	doubles   atomic.Int64
}

// NewService prepares a serve farm's ingest service. Params must have
// Serve set; the service installs itself as the farm's OnTaskDone hook.
func NewService(p *Params) (*Service, error) {
	if !p.Serve {
		return nil, fmt.Errorf("taskfarm: NewService requires Params.Serve")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.OnTaskDone != nil {
		return nil, fmt.Errorf("taskfarm: Params.OnTaskDone is owned by the Service in serve mode")
	}
	s := &Service{p: p}
	p.OnTaskDone = s.taskDone
	return s, nil
}

// Bind attaches the live runtime. Call it on the process hosting the
// root and shards (the gateway node) after the runtime is built and
// before serving traffic.
func (s *Service) Bind(rt *core.Runtime) {
	s.mu.Lock()
	s.rt = rt
	s.mu.Unlock()
}

// OnResult registers the completion callback. fn runs on the root
// chare's PE goroutine — it must be cheap and non-blocking (hand off to
// a channel or lock-free structure, don't do I/O).
func (s *Service) OnResult(fn func(seq int64, value float64)) {
	s.onResult.Store(&fn)
}

// Submit implements Submitter: it allocates n consecutive sequence
// numbers, posts them as one range to the next shard in round-robin
// order, and returns the first. The per-message cost is therefore
// amortized over the batch the caller accumulated, mirroring the grant
// batching on the worker side.
func (s *Service) Submit(n int) (int64, error) {
	lo, _, err := s.SubmitTraced(n, 0)
	return lo, err
}

// SubmitTraced is Submit with a causal trace parent: the submission
// message posted to the shard carries parent as its trace Parent, and
// the message's ID is returned alongside the range start — so a
// telemetry span tree rooted at, say, a gateway job's admission links
// injection → shard grant → worker execution causally. parent 0 means
// no parent.
func (s *Service) SubmitTraced(n int, parent uint64) (int64, uint64, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("taskfarm: submit %d tasks", n)
	}
	s.mu.Lock()
	if s.rt == nil {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("taskfarm: service not bound to a runtime")
	}
	lo := s.next
	s.next += int64(n)
	sh := s.rr
	s.rr = (s.rr + 1) % s.p.shards()
	rt := s.rt
	s.mu.Unlock()
	msgID := rt.PostTraced(core.ElemRef{Array: ArrayShard, Index: sh}, entrySubmit,
		submitMsg{Ranges: []taskRange{{Lo: lo, N: int64(n)}}}, parent)
	return lo, msgID, nil
}

// taskDone is the farm's OnTaskDone hook: bookkeeping first (so the
// double-execution audit sees every completion even if the callback
// panics), then the registered callback.
func (s *Service) taskDone(seq int64, value float64) {
	s.mu.Lock()
	w, b := int(seq/64), uint64(1)<<(seq%64)
	for w >= len(s.done) {
		s.done = append(s.done, 0)
	}
	dup := s.done[w]&b != 0
	s.done[w] |= b
	s.mu.Unlock()
	if dup {
		// A task executed twice. The farm's exactly-once machinery
		// (settlement by echoed ranges + epoch fencing) should make this impossible;
		// the counter exists so soak tests can assert it stays 0.
		s.doubles.Add(1)
		return
	}
	s.completed.Add(1)
	if fn := s.onResult.Load(); fn != nil {
		(*fn)(seq, value)
	}
}

// Completed reports how many distinct tasks have finished.
func (s *Service) Completed() int64 { return s.completed.Load() }

// DoubleExecs reports how many completions arrived for an
// already-completed sequence number — 0 unless exactly-once is broken.
func (s *Service) DoubleExecs() int64 { return s.doubles.Load() }

// Submitted reports how many task sequence numbers have been allocated.
func (s *Service) Submitted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

var _ Submitter = (*Service)(nil)
