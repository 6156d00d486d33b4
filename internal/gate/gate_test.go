package gate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmdo/internal/metrics"
)

// fakeFarm is a Submitter with a controllable completion side: auto
// mode completes each task asynchronously with value(seq); manual mode
// holds tasks until the test releases them.
type fakeFarm struct {
	mu      sync.Mutex
	next    int64
	auto    bool
	pending []int64
	done    func(seq int64, value float64)
}

func value(seq int64) float64 { return float64(seq) * 0.5 }

func (f *fakeFarm) Submit(n int) (int64, error) {
	f.mu.Lock()
	lo := f.next
	f.next += int64(n)
	auto, done := f.auto, f.done
	if !auto {
		for s := lo; s < lo+int64(n); s++ {
			f.pending = append(f.pending, s)
		}
	}
	f.mu.Unlock()
	if auto {
		go func() {
			for s := lo; s < lo+int64(n); s++ {
				done(s, value(s))
			}
		}()
	}
	return lo, nil
}

// release completes every held task.
func (f *fakeFarm) release() {
	f.mu.Lock()
	pend := f.pending
	f.pending = nil
	done := f.done
	f.mu.Unlock()
	for _, s := range pend {
		done(s, value(s))
	}
}

func newTestGate(t *testing.T, auto bool, cfg Config) (*Gateway, *fakeFarm) {
	t.Helper()
	farm := &fakeFarm{auto: auto}
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{{Name: "acme"}, {Name: "initech", Weight: 3}}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	g, err := New(cfg, farm)
	if err != nil {
		t.Fatal(err)
	}
	farm.done = g.OnResult
	t.Cleanup(func() { g.Close(nil) })
	return g, farm
}

func post(t *testing.T, srv *httptest.Server, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	b, _ := io.ReadAll(resp.Body)
	json.Unmarshal(b, &jr)
	return resp, jr
}

// TestHandlerTable drives the HTTP surface through its error and
// success paths.
func TestHandlerTable(t *testing.T) {
	g, farm := newTestGate(t, false, Config{
		Tenants:     []TenantConfig{{Name: "acme", MaxQueue: 1}, {Name: "initech"}},
		MaxInflight: 1,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Prime: one job goes inflight (farm holds it), one fills the queue.
	_, first := post(t, srv, `{"tenant":"acme","key":"k-orig"}`)
	if first.ID == "" || first.State == "" {
		t.Fatalf("prime submit: %+v", first)
	}
	waitInflight(t, g, 1)
	if _, r := post(t, srv, `{"tenant":"acme"}`); r.ID == "" {
		t.Fatalf("queue-filling submit failed: %+v", r)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantCode   int
		wantSubstr string
		check      func(t *testing.T, resp *http.Response, body []byte)
	}{
		{name: "bad json", method: "POST", path: "/v1/jobs", body: `{"tenant": nope}`, wantCode: 400},
		{name: "unknown field", method: "POST", path: "/v1/jobs", body: `{"tenant":"acme","bogus":1}`, wantCode: 400},
		{name: "missing tenant", method: "POST", path: "/v1/jobs", body: `{}`, wantCode: 400, wantSubstr: "tenant required"},
		{name: "unknown tenant", method: "POST", path: "/v1/jobs", body: `{"tenant":"evil"}`, wantCode: 403, wantSubstr: "unknown tenant"},
		{
			name: "over quota", method: "POST", path: "/v1/jobs", body: `{"tenant":"acme"}`, wantCode: 429,
			check: func(t *testing.T, resp *http.Response, _ []byte) {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			},
		},
		{
			name: "duplicate key returns original", method: "POST", path: "/v1/jobs",
			body: `{"tenant":"acme","key":"k-orig"}`, wantCode: 200,
			check: func(t *testing.T, _ *http.Response, body []byte) {
				var jr jobResponse
				json.Unmarshal(body, &jr)
				if jr.ID != first.ID {
					t.Errorf("duplicate returned id %s, want original %s", jr.ID, first.ID)
				}
				if !jr.Duplicate {
					t.Error("duplicate flag not set")
				}
			},
		},
		{name: "status", method: "GET", path: "/v1/jobs/" + first.ID, wantCode: 200},
		{name: "result before completion", method: "GET", path: "/v1/jobs/" + first.ID + "/result", wantCode: 409},
		{name: "unknown job", method: "GET", path: "/v1/jobs/j-999999/result", wantCode: 404},
		{name: "metrics unknown tenant", method: "GET", path: "/metrics?tenant=evil", wantCode: 403},
		{name: "metrics bad format", method: "GET", path: "/metrics?format=xml", wantCode: 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.wantCode, body)
			}
			if tc.wantSubstr != "" && !bytes.Contains(body, []byte(tc.wantSubstr)) {
				t.Errorf("body %q missing %q", body, tc.wantSubstr)
			}
			if tc.check != nil {
				tc.check(t, resp, body)
			}
		})
	}

	// Completion flips the 409 to a 200 with the task's value.
	farm.release()
	waitState(t, g, first.ID, StateDone)
	resp, err := http.Get(srv.URL + "/v1/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != 200 || jr.Value == nil {
		t.Fatalf("result after completion: code %d, %+v", resp.StatusCode, jr)
	}
	if math.Abs(*jr.Value-value(0)) > 1e-12 {
		t.Errorf("value %v, want %v", *jr.Value, value(0))
	}
}

func waitInflight(t *testing.T, g *Gateway, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		n := g.running
		g.mu.Unlock()
		if n >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("inflight never reached %d", want)
}

func waitState(t *testing.T, g *Gateway, id string, want JobState) {
	t.Helper()
	j, ok := g.Lookup(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-j.Done:
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
	if st, _, _ := g.Status(j); st != want {
		t.Fatalf("job %s state %v, want %v", id, st, want)
	}
}

// TestWaitSubmit long-polls a submission to completion.
func TestWaitSubmit(t *testing.T) {
	g, _ := newTestGate(t, true, Config{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, jr := post(t, srv, `{"tenant":"acme","wait":true}`)
	if resp.StatusCode != 200 || jr.State != "done" || jr.Value == nil {
		t.Fatalf("wait submit: code %d, %+v", resp.StatusCode, jr)
	}
}

// TestEventsStream reads the chunked event stream through to the
// terminal state.
func TestEventsStream(t *testing.T) {
	g, farm := newTestGate(t, false, Config{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	_, jr := post(t, srv, `{"tenant":"acme"}`)
	waitInflight(t, g, 1)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		farm.release()
	}()
	var events []jobResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobResponse
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.State != "done" || last.Value == nil {
		t.Fatalf("terminal event %+v", last)
	}
}

// TestConcurrentSubmitRetrieve is the race test: many goroutines
// submitting (some with colliding idempotency keys) while others poll
// status and results.
func TestConcurrentSubmitRetrieve(t *testing.T) {
	g, _ := newTestGate(t, true, Config{
		Tenants: []TenantConfig{{Name: "acme", MaxQueue: 10000}, {Name: "initech", MaxQueue: 10000, Weight: 2}},
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	ids := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := "acme"
			if w%2 == 1 {
				tenant = "initech"
			}
			for i := 0; i < perWorker; i++ {
				// Half the submissions share keys across workers, so
				// duplicates hit concurrently with originals.
				key := fmt.Sprintf("k-%d-%d", w, i)
				if i%2 == 0 {
					key = fmt.Sprintf("shared-%d", i)
				}
				_, jr := post(t, srv, fmt.Sprintf(`{"tenant":%q,"key":%q}`, tenant, key))
				if jr.ID != "" {
					ids <- jr.ID
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				case id := <-ids:
					resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					resp, err = http.Get(srv.URL + "/v1/jobs/" + id + "/result")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	// Every submitted job must complete; duplicates never double-run.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		pending := g.running
		for _, ts := range g.tenants {
			pending += ts.q.len()
		}
		g.mu.Unlock()
		if pending == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := g.cfg.Metrics.Snapshot()
	submitted := snap.Value("gate_jobs_submitted_total")
	completed := snap.Value("gate_jobs_completed_total")
	if submitted == 0 || submitted != completed {
		t.Errorf("submitted %d, completed %d", submitted, completed)
	}
	if d := snap.Value("gate_queue_depth"); d != 0 {
		t.Errorf("queue depth %d after drain", d)
	}
}

// TestWFQProportions pins the DRR scheduler: backlogged tenants drain
// in weight proportion.
func TestWFQProportions(t *testing.T) {
	w := newWFQ()
	qa := w.addTenant(TenantConfig{Name: "a", Weight: 1})
	qb := w.addTenant(TenantConfig{Name: "b", Weight: 3})
	for i := 0; i < 400; i++ {
		qa.push(&Job{ID: fmt.Sprintf("a%d", i), Tenant: "a"})
		qb.push(&Job{ID: fmt.Sprintf("b%d", i), Tenant: "b"})
	}
	counts := map[string]int{}
	for counts["a"]+counts["b"] < 200 {
		batch := w.Pop(8)
		if len(batch) == 0 {
			break
		}
		for _, j := range batch {
			counts[j.Tenant]++
		}
	}
	a, b := counts["a"], counts["b"]
	if a == 0 || b == 0 {
		t.Fatalf("a=%d b=%d", a, b)
	}
	ratio := float64(b) / float64(a)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("weight-3 tenant drained %dx weight-1 (a=%d b=%d), want ~3x", int(ratio), a, b)
	}
	// Starvation check: with b exhausted, a still drains fully.
	for {
		if batch := w.Pop(64); len(batch) == 0 {
			break
		}
	}
	if qa.len() != 0 || qb.len() != 0 {
		t.Errorf("queues not drained: a=%d b=%d", qa.len(), qb.len())
	}
}

// TestIdemTableTTL pins tombstone expiry.
func TestIdemTableTTL(t *testing.T) {
	tab := newIdemTable()
	now := time.Now()
	tab.insert("t", "k", "j-1", now)
	if id, ok := tab.lookup("t", "k", now.Add(idemTTL/2)); !ok || id != "j-1" {
		t.Fatalf("live key: %q %v", id, ok)
	}
	if _, ok := tab.lookup("t", "k", now.Add(2*idemTTL)); ok {
		t.Fatal("expired key still resolves")
	}
	// No cross-tenant bleed.
	if _, ok := tab.lookup("other", "k", now); ok {
		t.Fatal("key leaked across tenants")
	}
	// Lazy sweep keeps the table bounded as expired keys churn.
	for i := 0; i < 1000; i++ {
		tab.insert("t", fmt.Sprintf("k%d", i), "j", now.Add(time.Duration(i)*2*idemTTL))
	}
	if n := len(tab.entries); n > 20 {
		t.Errorf("idem table retained %d entries across expiring churn", n)
	}
}
