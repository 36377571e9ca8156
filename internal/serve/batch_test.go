package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/fault"
	"webbrief/internal/wb"
)

// TestBatchedWireEquivalence is the tentpole acceptance test: a server with
// micro-batching enabled must answer every request with bytes identical to
// the serial wb.Briefer path, whatever batch its request landed in. Rounds
// of 8/5/3/1 concurrent clients exercise full, partial and singleton
// batches over ragged real pages; the full round is deterministic
// coalescing (the batch fires only once all 8 members arrive), proving the
// fused B-row forward — not just the fallback — produced the bytes.
func TestBatchedWireEquivalence(t *testing.T) {
	m, v, pages := trainedModel(t)
	const beam = 2

	serial := wb.NewBriefer(m, v, beam, 0)
	want := make([][]byte, len(pages))
	for i, p := range pages {
		b, err := serial.BriefHTML(p.HTML)
		if err != nil {
			t.Fatalf("serial brief %d: %v", i, err)
		}
		j, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(j, '\n')
	}

	srv, err := New(m, v, Config{
		Replicas:    2,
		BeamWidth:   beam,
		BatchWindow: 100 * time.Millisecond,
		BatchMax:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(""); err != nil {
		t.Fatalf("warm: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for round, size := range []int{8, 5, 3, 1} {
		var wg sync.WaitGroup
		for c := 0; c < size; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				status, body, err := postBrief(ts.URL, pages[c].HTML)
				if err != nil || status != http.StatusOK {
					t.Errorf("round %d client %d: status %d err %v", round, c, status, err)
					return
				}
				if string(body) != string(want[c]) {
					t.Errorf("round %d client %d: batched response diverges from serial path:\n got %s\nwant %s",
						round, c, body, want[c])
				}
			}(c)
		}
		wg.Wait()
	}

	// The batching /metrics partition: every request above passed through
	// the scheduler, the 8-wide round coalesced, and the request outcome
	// partition stayed exact alongside it.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !snap.Batching.Enabled {
		t.Fatal("batching.enabled=false on a batching server")
	}
	const total = 8 + 5 + 3 + 1
	if snap.RequestsTotal != total || snap.Responses.OK != total {
		t.Fatalf("requests_total=%d ok=%d, want %d/%d", snap.RequestsTotal, snap.Responses.OK, total, total)
	}
	if snap.Batching.BatchesTotal < 1 {
		t.Fatalf("batches_total=%d, want >= 1", snap.Batching.BatchesTotal)
	}
	if snap.Batching.CoalescedRequestsTotal < 8 {
		t.Fatalf("coalesced_requests_total=%d, want >= 8 (the full round is deterministic)",
			snap.Batching.CoalescedRequestsTotal)
	}
	if snap.Batching.BatchSize.Count != snap.Batching.BatchesTotal {
		t.Fatalf("batch_size histogram count %d != batches_total %d",
			snap.Batching.BatchSize.Count, snap.Batching.BatchesTotal)
	}
	if snap.Batching.BatchSize.Sum != total {
		t.Fatalf("batch_size sum %d, want %d (every request in exactly one batch)",
			snap.Batching.BatchSize.Sum, total)
	}
	if snap.Batching.BatchWaitNS.Count != total {
		t.Fatalf("batch_wait_ns count %d, want %d (one wait per request)",
			snap.Batching.BatchWaitNS.Count, total)
	}
}

// blockingReplica parks every briefing until released, so a test can hold the
// pool's only replica while later requests queue behind it.
type blockingReplica struct {
	started chan struct{}
	release chan struct{}
}

func newBlockingReplica() *blockingReplica {
	return &blockingReplica{started: make(chan struct{}, 8), release: make(chan struct{})}
}

func (r *blockingReplica) Parse(html string) (*wb.Instance, error) { return &wb.Instance{}, nil }
func (r *blockingReplica) Brief(insts []*wb.Instance) wb.Briefing {
	return briefEach(insts, func() *wb.Brief {
		r.started <- struct{}{}
		<-r.release
		return &wb.Brief{Topic: []string{"ok"}}
	})
}

// TestBatchedDeadlineMidWindow: a request whose deadline expires while it
// waits in the batching window (and then for a replica) is dropped — its
// client times out, nothing else — while its batchmate in the same
// micro-batch is served normally. An expiring member must never poison the
// batch it joined.
func TestBatchedDeadlineMidWindow(t *testing.T) {
	rep := newBlockingReplica()
	srv := NewFromPool(PoolOf(rep), Config{
		QueueDepth:  8,
		BatchWindow: 200 * time.Millisecond,
		BatchMax:    4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only replica: this lone request batches by itself once its
	// window closes... except a singleton batch would wait the full 200ms,
	// so give it a deadline that fires its batch immediately.
	holdDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/brief", strings.NewReader("<p>hold</p>"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		holdDone <- err
	}()
	<-rep.started // the holder's batch has the replica and is parked in Brief

	// Now two requests coalesce into the next batch: one with a deadline
	// that expires before the replica frees up, one patient.
	doomedErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/brief", strings.NewReader("<p>doomed</p>"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("doomed request got a response")
		}
		doomedErr <- err
	}()
	matepStatus := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>patient</p>")
		if err != nil {
			status = -1
		}
		matepStatus <- status
	}()

	// The doomed client must give up on its deadline.
	if err := <-doomedErr; err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("doomed request error = %v, want context deadline exceeded", err)
	}
	// Free the replica: the holder and the surviving batchmate both brief.
	close(rep.release)
	if err := <-holdDone; err != nil {
		t.Fatalf("holding request: %v", err)
	}
	if status := <-matepStatus; status != http.StatusOK {
		t.Fatalf("batchmate of the expired request got %d, want 200", status)
	}

	ms := srv.Metrics()
	if ms.OK.Load() != 2 {
		t.Fatalf("ok=%d, want 2 (holder + surviving batchmate)", ms.OK.Load())
	}
	if ms.ReplicaFailure.Load() != 0 || ms.Unbriefable.Load() != 0 {
		t.Fatalf("failures=%d unbriefable=%d: the expired member poisoned its batch",
			ms.ReplicaFailure.Load(), ms.Unbriefable.Load())
	}
	// The expired member ended as a canceled/timed-out request, keeping the
	// outcome partition exact.
	if ms.Canceled.Load()+ms.Timeout.Load() != 1 {
		t.Fatalf("canceled=%d timeout=%d, want exactly one for the expired member",
			ms.Canceled.Load(), ms.Timeout.Load())
	}
	if ms.Requests.Load() != ms.OK.Load()+ms.Canceled.Load()+ms.Timeout.Load() {
		t.Fatalf("requests_total=%d does not partition into outcomes", ms.Requests.Load())
	}

	// And the server still drains cleanly with the batcher running.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n := srv.Drain(ctx); n != 0 {
		t.Fatalf("drain left %d requests", n)
	}
}

// TestChaosServeBatchedSoak is the batched twin of the serve chaos soak:
// micro-batching on, one of three replicas wrapped in a fault injector.
// Every request must still end in the 200/500 contract with >= 99% success,
// and /metrics must reconcile exactly with client-observed outcomes — a
// fault mid-batch may cost retries, never a hung or wrongly-failed
// batchmate. Skipped under -short; scripts/check.sh runs it race-enabled.
func TestChaosServeBatchedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	sched := fault.NewSchedule(fault.Config{
		Seed: 17, Rate: 0.35,
		ErrorWeight: 1, TimeoutWeight: 1, SlowWeight: 1, GarbageWeight: 1,
		SlowDelay:   time.Millisecond,
		TimeoutHang: 40 * time.Millisecond,
	})
	faulted := fault.NewReplica(&okReplica{}, sched)
	srv := NewFromPool(PoolOf(faulted, &okReplica{}, &okReplica{}), Config{
		ReplicaRetries: 2,
		StallTimeout:   15 * time.Millisecond,
		ProbeInterval:  2 * time.Millisecond,
		BatchWindow:    2 * time.Millisecond,
		BatchMax:       4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients, perClient = 8, 25
	var ok200, fail500, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, _, err := postBrief(ts.URL, "<p>soak</p>")
				switch {
				case err != nil:
					other.Add(1)
				case status == http.StatusOK:
					ok200.Add(1)
				case status == http.StatusInternalServerError:
					fail500.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	total := int64(clients * perClient)
	if other.Load() != 0 {
		t.Fatalf("%d requests ended outside the 200/500 contract", other.Load())
	}
	if ok200.Load() < total*99/100 {
		t.Fatalf("successes %d/%d, below p99 with one faulted replica", ok200.Load(), total)
	}

	ms := srv.Metrics()
	if ms.Requests.Load() != total {
		t.Fatalf("requests_total=%d, clients sent %d", ms.Requests.Load(), total)
	}
	if ms.OK.Load() != ok200.Load() || ms.ReplicaFailure.Load() != fail500.Load() {
		t.Fatalf("server ok=%d/500=%d, clients saw %d/%d",
			ms.OK.Load(), ms.ReplicaFailure.Load(), ok200.Load(), fail500.Load())
	}
	if ms.Requests.Load() != ms.OK.Load()+ms.ReplicaFailure.Load() {
		t.Fatalf("counters do not partition: total=%d ok=%d failure=%d",
			ms.Requests.Load(), ms.OK.Load(), ms.ReplicaFailure.Load())
	}
	if ms.Panics.Load()+ms.Stalls.Load() == 0 {
		t.Fatal("soak injected no faults; the chaos schedule is not reaching the replica")
	}
	if ms.BatchesTotal.Load() == 0 || ms.CoalescedRequests.Load() == 0 {
		t.Fatalf("batches=%d coalesced=%d under concurrent load, want both > 0",
			ms.BatchesTotal.Load(), ms.CoalescedRequests.Load())
	}

	waitCond(t, "pool capacity recovery", func() bool { return srv.Pool().Healthy() == 3 })
	if srv.Metrics().InFlight.Load() != 0 || srv.Metrics().Queued.Load() != 0 {
		t.Fatalf("residual in_flight=%d queued=%d", srv.Metrics().InFlight.Load(), srv.Metrics().Queued.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n := srv.Drain(ctx); n != 0 {
		t.Fatalf("drain left %d requests", n)
	}
}

// TestBatchedOverloadAndDraining: the batched admission path keeps the
// serial path's load-shedding contract — a full queue sheds 429 with
// Retry-After, and requests arriving after shutdown are refused 503.
func TestBatchedOverloadAndDraining(t *testing.T) {
	rep := newBlockingReplica()
	srv := NewFromPool(PoolOf(rep), Config{
		QueueDepth:  1,
		BatchWindow: time.Hour, // nothing dispatches on its own
		BatchMax:    1,         // each item fills its own batch instantly
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First request: batch of one, checks out the replica, parks in Brief.
	first := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>a</p>")
		if err != nil {
			status = -1
		}
		first <- status
	}()
	<-rep.started
	// Second request: sits in the batchCh buffer (depth 1).
	second := make(chan int, 1)
	go func() {
		status, _, err := postBrief(ts.URL, "<p>b</p>")
		if err != nil {
			status = -1
		}
		second <- status
	}()
	waitCond(t, "second request to queue", func() bool { return srv.Metrics().Queued.Load() >= 2 })

	// Third request: queue full, shed.
	status, _, err := postBrief(ts.URL, "<p>c</p>")
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("over-admission request: status %d err %v, want 429", status, err)
	}

	srv.BeginShutdown()
	if status, _, err := postBrief(ts.URL, "<p>d</p>"); err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: status %d err %v, want 503", status, err)
	}

	close(rep.release)
	if s := <-first; s != http.StatusOK {
		t.Fatalf("first request: %d, want 200", s)
	}
	if s := <-second; s != http.StatusOK {
		t.Fatalf("queued request: %d, want 200 (flushed by the drain)", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n := srv.Drain(ctx); n != 0 {
		t.Fatalf("drain left %d requests", n)
	}
	ms := srv.Metrics()
	if ms.Overload.Load() != 1 || ms.Draining.Load() != 1 || ms.OK.Load() != 2 {
		t.Fatalf("overload=%d draining=%d ok=%d, want 1/1/2",
			ms.Overload.Load(), ms.Draining.Load(), ms.OK.Load())
	}
}
