package serve

import (
	"context"
	"net/http"
	"time"

	"webbrief/internal/wb"
)

// This file is the cross-request micro-batch scheduler: the batching stage
// that sits between admission and the replica pool when Config.BatchWindow
// is set. Requests admitted concurrently coalesce into one batch of up to
// BatchMax; the batch briefs in one fused B-row forward on a single replica
// checkout (see Replica.Brief), so concurrent load turns into wider matmuls
// instead of replica contention. The window is bounded and deadline-aware:
// a batch fires as soon as it is full, its window elapses, or waiting
// longer would expire a member's context.
//
// Ownership is linear, so no item field needs a lock: the handler builds a
// batchItem and only ever touches ctx and result afterwards; the dispatcher
// owns it between the batchCh send and launch; exactly one executor
// goroutine owns it from launch until deliver. Each handoff is through a
// channel, which orders the accesses.
//
// The same item, runner and retry loop also carry every request when
// batching is off: the handler then runs a batch of one inline on the
// replica it checked out (see execute), with no dispatcher hop.

// batchItem is one admitted request waiting in (or running through) the
// micro-batch scheduler, or running inline as a batch of one.
type batchItem struct {
	ctx      context.Context
	body     []byte
	enqueued time.Time

	// Executor-owned bookkeeping.
	queueWait time.Duration // enqueue → first replica checkout
	waitSet   bool
	answered  bool

	result chan batchResult // capacity 1; at most one send, guarded by answered
}

// batchResult carries the request's pipeline outcome back to its handler.
type batchResult struct {
	o         pipelineOutcome
	queueWait time.Duration
}

// deliver sends the outcome to the waiting handler, at most once. Only the
// item's executor goroutine calls it, so the answered guard needs no lock;
// the result channel's capacity means the send never blocks even if the
// handler already gave up on its context.
func (it *batchItem) deliver(o pipelineOutcome) {
	if it.answered {
		return
	}
	it.answered = true
	it.result <- batchResult{o: o, queueWait: it.queueWait}
}

// briefBatched is handleBrief's tail when batching is on: enqueue the
// request for the dispatcher and wait for its outcome or the context. The
// batchCh buffer is the admission queue (same depth as the inline path's
// queueSlots); a full channel sheds with 429 exactly like a full queue.
// fill is the request's cache-fill obligation (nil when caching is off or
// the request bypassed the cache); shed and expired exits leave it to the
// caller's deferred abandon.
func (s *Server) briefBatched(w http.ResponseWriter, lg *accessEntry, it *batchItem, fill *cacheFill) {
	m := s.metrics
	// Admission: take a slot or shed. Slots are held until the response, so
	// the scheduler can never accumulate more outstanding requests than the
	// inline path's queued + in-flight ceiling.
	select {
	case s.batchSlots <- struct{}{}:
	default:
		m.Overload.Add(1)
		lg.Status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		http.Error(w, "briefing queue is full, retry later", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.batchSlots }()
	m.Queued.Add(1)
	defer m.Queued.Add(-1)
	// Re-check readiness after the Queued increment: if this handler saw
	// ready=true here, BeginShutdown had not yet run, so the drain loop is
	// guaranteed to observe this request in Queued and wait for it.
	if !s.ready.Load() {
		m.Draining.Add(1)
		lg.Status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	// Cannot block: channel capacity equals the slot count.
	s.batchCh <- it
	s.await(w, lg, it, fill)
}

// await answers a request from its item: the runner's outcome, or its
// context error when the runner dropped it expired. A delivered outcome
// wins over a context that expired at the same moment. An expired member
// never poisons its batchmates — the runner skips or ctxErr-delivers it.
func (s *Server) await(w http.ResponseWriter, lg *accessEntry, it *batchItem, fill *cacheFill) {
	var res batchResult
	select {
	case res = <-it.result:
	case <-it.ctx.Done():
		select {
		case res = <-it.result:
		default:
			s.failCtx(w, lg, it.ctx.Err())
			return
		}
	}
	s.metrics.QueueWait.Observe(res.queueWait)
	lg.QueueMS = roundMS(res.queueWait)
	s.respondOutcome(w, lg, res.o, fill)
}

// dispatchBatches is the scheduler goroutine: it groups enqueued requests
// into batches and hands each to an executor. On shutdown it flushes the
// queue without windowing and exits once every outstanding request is
// answered.
func (s *Server) dispatchBatches() {
	defer close(s.batcherDone)
	for {
		select {
		case it := <-s.batchCh:
			s.collectAndLaunch(it)
		case <-s.shutdownCh:
			s.drainBatcher()
			return
		}
	}
}

// collectAndLaunch grows a batch around its first member until it is full,
// the batching window closes, or shutdown begins. The window anchors at the
// first member's enqueue time and shrinks to the earliest member context
// deadline, so no request expires merely waiting for batchmates.
func (s *Server) collectAndLaunch(first *batchItem) {
	batch := append(make([]*batchItem, 0, s.cfg.BatchMax), first)
	fireAt := first.enqueued.Add(s.cfg.BatchWindow)
	if dl, ok := first.ctx.Deadline(); ok && dl.Before(fireAt) {
		fireAt = dl
	}
	timer := time.NewTimer(time.Until(fireAt))
	defer func() { timer.Stop() }()
collect:
	for len(batch) < s.cfg.BatchMax {
		select {
		case it := <-s.batchCh:
			batch = append(batch, it)
			if dl, ok := it.ctx.Deadline(); ok && dl.Before(fireAt) {
				fireAt = dl
				// Replace rather than Reset: Reset on a possibly-fired
				// timer requires draining its channel, racing the select.
				timer.Stop()
				timer = time.NewTimer(time.Until(fireAt))
			}
		case <-timer.C:
			break collect
		case <-s.shutdownCh:
			break collect
		}
	}
	s.launch(batch)
}

// launch records the batch-formation metrics and starts the executor.
func (s *Server) launch(batch []*batchItem) {
	m := s.metrics
	m.BatchesTotal.Add(1)
	m.BatchSize.Observe(len(batch))
	if len(batch) > 1 {
		m.CoalescedRequests.Add(int64(len(batch)))
	}
	now := time.Now()
	for _, it := range batch {
		m.BatchWait.Observe(now.Sub(it.enqueued))
	}
	s.batchWG.Add(1)
	go func() {
		defer s.batchWG.Done()
		// One pool snapshot per batch: every checkout, retry and Put
		// targets a single model generation even if a hot reload swaps the
		// live pointer mid-batch.
		s.execute(s.pool.Load(), nil, batch)
	}()
}

// drainBatcher runs after shutdown begins: flush whatever is already queued
// (no window — latency no longer buys batchmates), then wait until every
// enqueued request has left Queued and every executor has finished.
func (s *Server) drainBatcher() {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case it := <-s.batchCh:
			batch := append(make([]*batchItem, 0, s.cfg.BatchMax), it)
		fill:
			for len(batch) < s.cfg.BatchMax {
				select {
				case more := <-s.batchCh:
					batch = append(batch, more)
				default:
					break fill
				}
			}
			s.launch(batch)
		case <-tick.C:
			if s.metrics.Queued.Load() == 0 {
				s.batchWG.Wait()
				return
			}
		}
	}
}

// execute runs items through the pipeline, retrying unanswered members on
// a fresh replica when one faults, within the per-request retry budget. rep
// is the replica the caller already checked out of pool (the inline path),
// or nil to check one out for the lead live member (the scheduler). Members
// whose context expires before a run get no result; their handlers answer
// from ctx.Done, exactly like a queue-expiry 504.
func (s *Server) execute(pool *Pool, rep Replica, items []*batchItem) {
	m := s.metrics
	m.InFlight.Add(int64(len(items)))
	defer m.InFlight.Add(-int64(len(items)))
	for attempt := 0; ; {
		var live []*batchItem
		for _, it := range items {
			if it.ctx.Err() == nil {
				live = append(live, it)
			}
		}
		if len(live) == 0 {
			if rep != nil {
				pool.Put(rep)
			}
			return
		}
		if rep == nil {
			r, err := pool.Get(live[0].ctx)
			if err != nil {
				// The lead item's context died waiting for a replica; drop
				// it and keep trying for the rest.
				items = live[1:]
				continue
			}
			rep = r
		}
		now := time.Now()
		for _, it := range live {
			if !it.waitSet {
				it.queueWait, it.waitSet = now.Sub(it.enqueued), true
			}
		}
		if s.runOn(pool, rep, live) {
			return
		}
		// The replica faulted and is already ejected (runStage); members
		// answered before the fault keep their responses.
		rep = nil
		var rem []*batchItem
		for _, it := range live {
			if !it.answered {
				rem = append(rem, it)
			}
		}
		if len(rem) == 0 {
			return
		}
		if attempt >= s.cfg.ReplicaRetries {
			for _, it := range rem {
				it.deliver(pipelineOutcome{faulted: true})
			}
			return
		}
		attempt++
		m.Retries.Add(int64(len(rem)))
		items = rem
	}
}

// runOn briefs items on one checked-out replica: parse each member, settle
// the ones that cannot go on, then one Brief call for the rest. The
// deadline is checked after parse and after the briefing. Stage latencies
// are observed once per member — each request did wait the whole stage —
// so stage sums are wall-clock waits, not CPU time; a faulted stage
// observes nothing. Reports false when the replica faulted (it is already
// ejected and must not be Put back).
func (s *Server) runOn(pool *Pool, rep Replica, items []*batchItem) bool {
	m := s.metrics

	insts := make([]*wb.Instance, len(items))
	perrs := make([]error, len(items))
	t0 := time.Now()
	if !s.runStage(pool, rep, func() {
		for i, it := range items {
			insts[i], perrs[i] = rep.Parse(string(it.body))
		}
	}) {
		return false
	}
	parseDur := time.Since(t0)

	// Settle every member's fate after parse: unparseable pages answer 422,
	// members whose deadline expired meanwhile answer their ctx error, and
	// the rest go on to the briefing.
	var liveItems []*batchItem
	var liveInsts []*wb.Instance
	for i, it := range items {
		m.Parse.Observe(parseDur)
		if perrs[i] != nil {
			it.deliver(pipelineOutcome{unbriefable: perrs[i]})
			continue
		}
		if err := it.ctx.Err(); err != nil {
			it.deliver(pipelineOutcome{ctxErr: err})
			continue
		}
		liveItems = append(liveItems, it)
		liveInsts = append(liveInsts, insts[i])
	}
	if len(liveItems) == 0 {
		pool.Put(rep)
		return true
	}

	var res wb.Briefing
	if !s.runStage(pool, rep, func() { res = rep.Brief(liveInsts) }) {
		return false
	}
	for i, it := range liveItems {
		m.Encode.Observe(res.Encode)
		m.Decode.Observe(res.Decode)
		if res.Cascade != nil {
			s.observeCascade(res.Cascade[i])
		}
		if err := it.ctx.Err(); err != nil {
			it.deliver(pipelineOutcome{ctxErr: err})
			continue
		}
		it.deliver(pipelineOutcome{brief: res.Briefs[i]})
	}
	pool.Put(rep)
	return true
}

// observeCascade folds one briefing's cascade decision into the tier
// counters and histograms. Called only after a clean Brief: a faulted
// briefing never counts toward either tier.
func (s *Server) observeCascade(d wb.CascadeDecision) {
	m := s.metrics
	m.CascadeRequests.Add(1)
	m.StudentLatency.Observe(d.Student)
	if d.Escalated {
		m.CascadeTeacher.Add(1)
		m.TeacherLatency.Observe(d.Teacher)
	} else {
		m.CascadeStudent.Add(1)
	}
}
