package taskfarm

import (
	"math"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

// TestServeFarmExecutesSubmissions drives a live serve farm through the
// Service: tasks submitted after the runtime started must execute
// exactly once each, with their values routed back through OnResult.
func TestServeFarmExecutesSubmissions(t *testing.T) {
	p := &Params{Serve: true, Prefetch: 2, Workers: 4, Shards: 2, Batch: 8, Steal: true, Spin: 100}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Single(4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	svc.Bind(rt)

	var mu sync.Mutex
	got := make(map[int64]float64)
	done := make(chan struct{}, 1)
	const total = 500
	svc.OnResult(func(seq int64, v float64) {
		mu.Lock()
		got[seq] = v
		n := len(got)
		mu.Unlock()
		if n == total {
			done <- struct{}{}
		}
	})

	runDone := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		runDone <- err
	}()

	// Submit in uneven batches from several goroutines, like the gate's
	// ingest pump under concurrent tenants.
	var wg sync.WaitGroup
	sizes := []int{1, 7, 64, 128, 100, 200}
	for _, n := range sizes {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if _, err := svc.Submit(n); err != nil {
				t.Error(err)
			}
		}(n)
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out: %d/%d tasks completed", svc.Completed(), total)
	}
	rt.Stop()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	if n := svc.Submitted(); n != total {
		t.Errorf("submitted %d, want %d", n, total)
	}
	if n := svc.Completed(); n != total {
		t.Errorf("completed %d, want %d", n, total)
	}
	if d := svc.DoubleExecs(); d != 0 {
		t.Errorf("%d double executions", d)
	}
	for seq := int64(0); seq < total; seq++ {
		v, ok := got[seq]
		if !ok {
			t.Fatalf("task %d never completed", seq)
		}
		if want := TaskValue(int(seq)); math.Abs(v-want) > 1e-12 {
			t.Errorf("task %d value %v, want %v", seq, v, want)
		}
	}
}

// TestServeParamsValidate pins serve-mode parameter rules and the
// aggregated-error contract.
func TestServeParamsValidate(t *testing.T) {
	if err := (&Params{Serve: true, Prefetch: 1, Shards: 1, Batch: 4}).Validate(); err != nil {
		t.Errorf("minimal serve params rejected: %v", err)
	}
	if err := (&Params{Serve: true, Tasks: 10, Prefetch: 1, Shards: 1, Batch: 4}).Validate(); err == nil {
		t.Error("serve farm with preset Tasks accepted")
	}
	// Shards 0 means one dispatcher, for a serve farm like any other.
	if err := (&Params{Serve: true, Prefetch: 1, Shards: 0, Batch: 4}).Validate(); err != nil {
		t.Errorf("serve farm with the default shard count rejected: %v", err)
	}
	// Batch <= 0 used to be silently coerced to 1.
	if err := (&Params{Serve: true, Prefetch: 1, Shards: 2, Workers: 4}).Validate(); err == nil {
		t.Error("serve farm with Batch 0 accepted")
	}
	// One Validate call reports every violation, not just the first.
	err := (&Params{Serve: true, Tasks: -1, Prefetch: 0, Batch: 0}).Validate()
	if err == nil {
		t.Fatal("multiply-invalid params accepted")
	}
	for _, frag := range []string{"Tasks", "prefetch", "Batch"} {
		if !containsFold(err.Error(), frag) {
			t.Errorf("aggregated error %q missing %q", err, frag)
		}
	}
	// NewService refuses non-serve params.
	if _, err := NewService(&Params{Tasks: 10, Prefetch: 1}); err == nil {
		t.Error("NewService accepted a batch farm")
	}
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
