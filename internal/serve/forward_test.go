package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbrief/internal/ag"
	"webbrief/internal/wb"
)

// countingModel is a Joint-WB teacher that counts its eval forwards, per
// instance (Forward) and fused (ForwardBatchEval).
type countingModel struct {
	*wb.JointWB
	forwards      atomic.Int64
	batchForwards atomic.Int64
}

func (c *countingModel) Forward(t *ag.Tape, inst *wb.Instance, mode wb.Mode) *wb.Output {
	c.forwards.Add(1)
	return c.JointWB.Forward(t, inst, mode)
}

func (c *countingModel) ForwardBatchEval(t *ag.Tape, insts []*wb.Instance) []*wb.Output {
	c.batchForwards.Add(1)
	return c.JointWB.ForwardBatchEval(t, insts)
}

var _ wb.BatchForwarder = (*countingModel)(nil)

// TestServeOneForwardPerBriefing pins the serving cost model: a briefing is
// one joint forward whose output feeds extraction, section flags and beam
// search alike. An unbatched miss runs exactly one teacher Forward, a batch
// of two or more exactly one ForwardBatchEval, and a cascade escalation
// exactly one teacher forward on top of the student's — with the wire bytes
// still identical to the serial wb.Briefer path.
func TestServeOneForwardPerBriefing(t *testing.T) {
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

	// serveCounting boots a one-replica server whose teacher counts its
	// forwards; threshold > 1 turns on the always-escalating cascade.
	serveCounting := func(t *testing.T, cfg Config, threshold float64) (*Server, *httptest.Server, *countingModel) {
		t.Helper()
		var pool *Pool
		var err error
		if threshold > 1 {
			pool, err = NewCascadePool(m, v, 1, beam, 0, threshold)
		} else {
			pool, err = NewPool(m, v, 1, beam, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := pool.TryGet()
		cm := &countingModel{JointWB: m}
		rep.(*modelReplica).model = cm
		pool.Put(rep)
		srv := NewFromPool(pool, cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts, cm
	}

	// briefAll posts every page, all at once when concurrent, and checks
	// each response against the serial bytes.
	briefAll := func(t *testing.T, ts *httptest.Server, n int, concurrent bool) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			post := func(i int) {
				defer wg.Done()
				status, body, err := postBrief(ts.URL, pages[i].HTML)
				if err != nil || status != http.StatusOK {
					t.Errorf("page %d: status %d err %v", i, status, err)
					return
				}
				if !bytes.Equal(body, want[i]) {
					t.Errorf("page %d diverges from the serial path:\n got %s\nwant %s", i, body, want[i])
				}
			}
			wg.Add(1)
			if concurrent {
				go post(i)
			} else {
				post(i)
			}
		}
		wg.Wait()
	}

	const batch = 4
	for _, tc := range []struct {
		name      string
		threshold float64
	}{{"teacher", 0}, {"cascade-escalate", 2}} {
		t.Run(tc.name+"/unbatched", func(t *testing.T) {
			_, ts, cm := serveCounting(t, Config{}, tc.threshold)
			briefAll(t, ts, len(pages), false)
			if f, bf := cm.forwards.Load(), cm.batchForwards.Load(); f != int64(len(pages)) || bf != 0 {
				t.Fatalf("%d unbatched briefings ran %d teacher Forwards and %d ForwardBatchEvals, want %d and 0",
					len(pages), f, bf, len(pages))
			}
		})
		t.Run(tc.name+"/batched", func(t *testing.T) {
			// The window outlasts the test, so the batch fires only once full.
			srv, ts, cm := serveCounting(t, Config{QueueDepth: batch, BatchWindow: time.Minute, BatchMax: batch}, tc.threshold)
			briefAll(t, ts, batch, true)
			if n := srv.Metrics().BatchesTotal.Load(); n != 1 {
				t.Fatalf("%d concurrent posts formed %d batches, want 1", batch, n)
			}
			if f, bf := cm.forwards.Load(), cm.batchForwards.Load(); f != 0 || bf != 1 {
				t.Fatalf("one batch of %d ran %d teacher Forwards and %d ForwardBatchEvals, want 0 and 1",
					batch, f, bf)
			}
		})
	}
}
