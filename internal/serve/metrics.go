package serve

import (
	"sync/atomic"
	"time"

	"webbrief/internal/briefcache"
)

// latencyBucketsMS are the fixed histogram bucket upper bounds, in
// milliseconds. The last slot of a Histogram's counts is the overflow
// bucket (> 1s). Fixed buckets keep observation lock-free (one atomic add)
// and make /metrics output directly comparable across runs.
var latencyBucketsMS = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Sum is tracked in microseconds so it stays an integer add.
type histogram struct {
	counts [12]atomic.Int64 // len(latencyBucketsMS) + overflow
	count  atomic.Int64
	sumUS  atomic.Int64
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// snapshot renders the histogram for /metrics.
func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		BucketsMS: latencyBucketsMS,
		Counts:    make([]int64, len(h.counts)),
		Count:     h.count.Load(),
		SumMS:     float64(h.sumUS.Load()) / 1e3,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// histogramSnapshot is the JSON form of one histogram. Counts has one extra
// trailing slot: observations above the last bucket bound.
type histogramSnapshot struct {
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	SumMS     float64   `json:"sum_ms"`
}

// batchWaitBucketsNS are the batch-wait histogram bucket upper bounds, in
// nanoseconds: 50µs–100ms. Batch waits sit well below request latencies (the
// window is typically a fraction of one briefing), so they get their own
// finer scale.
var batchWaitBucketsNS = []int64{
	50_000, 100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000, 10_000_000,
	20_000_000, 50_000_000, 100_000_000,
}

// cacheHitBucketsNS are the cache-hit latency bucket upper bounds, in
// nanoseconds: 1µs–10ms. A hit is one or two SHA-256s plus a shard-locked
// map probe, an order of magnitude below even the batch-wait scale, so it
// gets its own buckets on the shared nsHistogram machinery.
var cacheHitBucketsNS = []int64{
	1_000, 2_000, 5_000, 10_000,
	20_000, 50_000, 100_000, 200_000,
	500_000, 1_000_000, 10_000_000,
}

// nsHistogram is a fixed-bucket nanosecond histogram, same lock-free
// observation discipline as histogram. The bucket bounds are supplied per
// call site (observe/snapshotWith), so one struct serves both the
// batch-wait and cache-hit scales; Observe/snapshot keep the original
// batch-wait binding.
type nsHistogram struct {
	counts [12]atomic.Int64 // len(bucket slice) + overflow
	count  atomic.Int64
	sumNS  atomic.Int64
}

// observe records one duration against explicit bucket bounds (which must
// have len(counts)-1 entries and be used consistently for one histogram).
func (h *nsHistogram) observe(buckets []int64, d time.Duration) {
	ns := d.Nanoseconds()
	i := 0
	for i < len(buckets) && ns > buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Observe records one batch-wait duration.
func (h *nsHistogram) Observe(d time.Duration) { h.observe(batchWaitBucketsNS, d) }

// snapshotWith renders the histogram for /metrics against the bucket
// bounds it was observed with.
func (h *nsHistogram) snapshotWith(buckets []int64) nsHistogramSnapshot {
	s := nsHistogramSnapshot{
		BucketsNS: buckets,
		Counts:    make([]int64, len(h.counts)),
		Count:     h.count.Load(),
		SumNS:     h.sumNS.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// snapshot renders a batch-wait histogram.
func (h *nsHistogram) snapshot() nsHistogramSnapshot { return h.snapshotWith(batchWaitBucketsNS) }

// nsHistogramSnapshot is the JSON form of one nanosecond histogram.
type nsHistogramSnapshot struct {
	BucketsNS []int64 `json:"buckets_ns"`
	Counts    []int64 `json:"counts"`
	Count     int64   `json:"count"`
	SumNS     int64   `json:"sum_ns"`
}

// batchSizeBuckets are the batch-size histogram bucket upper bounds
// (requests per formed batch); the trailing slot catches larger batches.
var batchSizeBuckets = []int64{1, 2, 3, 4, 6, 8, 12, 16}

// sizeHistogram is a fixed-bucket histogram over small integer sizes.
type sizeHistogram struct {
	counts [9]atomic.Int64 // len(batchSizeBuckets) + overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one batch size.
func (h *sizeHistogram) Observe(n int) {
	v := int64(n)
	i := 0
	for i < len(batchSizeBuckets) && v > batchSizeBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot renders the histogram for /metrics.
func (h *sizeHistogram) snapshot() sizeHistogramSnapshot {
	s := sizeHistogramSnapshot{
		Buckets: batchSizeBuckets,
		Counts:  make([]int64, len(h.counts)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// sizeHistogramSnapshot is the JSON form of one size histogram.
type sizeHistogramSnapshot struct {
	Buckets []int64 `json:"buckets"`
	Counts  []int64 `json:"counts"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// Metrics aggregates the serving counters exported at /metrics. All fields
// are atomics: the hot path never takes a lock to record.
type Metrics struct {
	// Requests counts every request that reached the /brief handler,
	// whatever its outcome. The outcome counters below partition it.
	Requests atomic.Int64

	OK             atomic.Int64 // 200: briefing served
	BadMethod      atomic.Int64 // 405: non-POST
	BadRequest     atomic.Int64 // 400: unreadable body
	TooLarge       atomic.Int64 // 413: body over the limit
	Unbriefable    atomic.Int64 // 422: no visible text
	Overload       atomic.Int64 // 429: admission queue full
	Timeout        atomic.Int64 // 504: deadline expired in queue or pipeline
	Canceled       atomic.Int64 // client disconnected before a response
	Draining       atomic.Int64 // 503: received during shutdown
	ReplicaFailure atomic.Int64 // 500: replica panicked/stalled and the retry budget ran out

	InFlight atomic.Int64 // requests owned by the briefing runner (on, or awaiting, a replica)
	Queued   atomic.Int64 // requests waiting for a replica

	// Resilience counters: every recovered replica panic and detected
	// stall ejects the offending replica; each such event then either
	// retries the request on another replica (Retries) or, with the
	// budget spent, ends it as a ReplicaFailure.
	Panics  atomic.Int64 // replica panics recovered by the handler
	Stalls  atomic.Int64 // replica stage stalls caught by the watchdog
	Retries atomic.Int64 // requests re-run on another replica (retries_total)

	QueueWait histogram // time from admission to replica checkout
	Parse     histogram // HTML → instance
	Encode    histogram // the one eval forward plus the extractor/section tail
	Decode    histogram // beam search on that forward, plus any cascade escalation
	Total     histogram // handler entry → response written

	// Batching counters, populated only when Config.BatchWindow > 0. They
	// partition batches, not requests: the requests_total outcome partition
	// above stays exact because every batched request still ends in exactly
	// one per-request outcome.
	BatchesTotal      atomic.Int64  // micro-batches dispatched (batches_total)
	CoalescedRequests atomic.Int64  // requests served in batches of size ≥ 2
	BatchSize         sizeHistogram // requests per dispatched batch
	BatchWait         nsHistogram   // enqueue → batch dispatch, per request

	// Cache counters, populated only when the briefing cache is enabled.
	// CacheLookups counts every request that consulted the cache, and the
	// three outcome counters partition it exactly (cacheOutcomeFields):
	// each consulting request is a hit, a miss (flight winner) or a
	// coalesced waiter, assigned once at first decision. Evictions live on
	// the cache itself and are read at snapshot time.
	CacheLookups    atomic.Int64 // cache_lookups_total
	CacheHits       atomic.Int64 // served from cache, no replica checkout
	CacheMisses     atomic.Int64 // flight winners that computed the briefing
	CacheCoalesced  atomic.Int64 // waiters served by a winner's flight
	CacheHitLatency nsHistogram  // lookup start → hit response written (cacheHitBucketsNS)

	// Cascade counters, populated only when the pool runs the float32
	// student cascade (NewCascadePool). CascadeRequests counts every
	// briefing routed through the cascade, and the two tier counters
	// partition it exactly (cascadeOutcomeFields): each briefing either
	// stays on the student or escalates to the teacher, decided once at
	// decode time. The tier histograms carry per-tier wall time: every
	// briefing observes a student latency; only escalations observe a
	// teacher latency on top.
	CascadeRequests atomic.Int64 // cascade_requests_total
	CascadeStudent  atomic.Int64 // answered by the float32 student tier
	CascadeTeacher  atomic.Int64 // escalated to the float64 teacher tier
	StudentLatency  histogram    // student encode+decode wall time, per briefing
	TeacherLatency  histogram    // teacher re-brief wall time, per escalation
}

// requestOutcomeFields names the Metrics counters that partition
// requests_total: every request ends in exactly one of them. The wbcheck
// metricpart pass enforces the contract mechanically — each entry must be
// an atomic.Int64 field above, the Responses snapshot must mirror this
// list exactly, and any new counter bumped where a response status is
// recorded must be added here (and to the snapshot) or the partition
// silently drifts. TestRequestOutcomeFieldsReconcile re-checks the same
// three-way correspondence at run time with reflection.
var requestOutcomeFields = []string{
	"OK",
	"BadMethod",
	"BadRequest",
	"TooLarge",
	"Unbriefable",
	"Overload",
	"Timeout",
	"Canceled",
	"Draining",
	"ReplicaFailure",
}

// cacheOutcomeFields names the counters that partition
// cache_lookups_total: every request that consults the cache ends in
// exactly one of them. Enforced by the same wbcheck metricpart pass and
// runtime reflection test as requestOutcomeFields.
var cacheOutcomeFields = []string{
	"CacheHits",
	"CacheMisses",
	"CacheCoalesced",
}

// cascadeOutcomeFields names the counters that partition
// cascade_requests_total: every briefing that runs the cascade is answered
// by exactly one tier. Enforced by the same wbcheck metricpart pass and
// runtime reflection test as requestOutcomeFields.
var cascadeOutcomeFields = []string{
	"CascadeStudent",
	"CascadeTeacher",
}

// metricsSnapshot is the JSON document served at /metrics. Struct (not
// map) so field order is stable across scrapes.
type metricsSnapshot struct {
	RequestsTotal int64 `json:"requests_total"`
	Responses     struct {
		OK             int64 `json:"ok"`
		BadMethod      int64 `json:"bad_method"`
		BadRequest     int64 `json:"bad_request"`
		TooLarge       int64 `json:"too_large"`
		Unbriefable    int64 `json:"unbriefable"`
		Overload       int64 `json:"overload"`
		Timeout        int64 `json:"timeout"`
		Canceled       int64 `json:"canceled"`
		Draining       int64 `json:"draining"`
		ReplicaFailure int64 `json:"replica_failure"`
	} `json:"responses"`
	RetriesTotal int64 `json:"retries_total"`
	PanicsTotal  int64 `json:"panics_total"`
	StallsTotal  int64 `json:"stalls_total"`
	InFlight     int64 `json:"in_flight"`
	QueueDepth   int64 `json:"queue_depth"`
	Pool         struct {
		Replicas        int   `json:"replicas"`
		Idle            int   `json:"idle"`
		ReplicasHealthy int   `json:"replicas_healthy"`
		Ejections       int64 `json:"ejections_total"`
		Readmissions    int64 `json:"readmissions_total"`
		BreakerState    struct {
			Closed   int `json:"closed"`
			Open     int `json:"open"`
			HalfOpen int `json:"half_open"`
		} `json:"breaker_state"`
	} `json:"pool"`
	LatencyMS struct {
		QueueWait histogramSnapshot `json:"queue_wait"`
		Parse     histogramSnapshot `json:"parse"`
		Encode    histogramSnapshot `json:"encode"`
		Decode    histogramSnapshot `json:"decode"`
		Total     histogramSnapshot `json:"total"`
	} `json:"latency_ms"`
	Batching struct {
		Enabled                bool                  `json:"enabled"`
		BatchesTotal           int64                 `json:"batches_total"`
		CoalescedRequestsTotal int64                 `json:"coalesced_requests_total"`
		BatchSize              sizeHistogramSnapshot `json:"batch_size"`
		BatchWaitNS            nsHistogramSnapshot   `json:"batch_wait_ns"`
	} `json:"batching"`
	Cache struct {
		Enabled       bool  `json:"enabled"`
		CacheLookups  int64 `json:"cache_lookups_total"`
		CacheOutcomes struct {
			CacheHits      int64 `json:"cache_hits_total"`
			CacheMisses    int64 `json:"cache_misses_total"`
			CacheCoalesced int64 `json:"cache_coalesced_total"`
		} `json:"outcomes"`
		Evictions    int64               `json:"cache_evictions_total"`
		Entries      int                 `json:"entries"`
		HitLatencyNS nsHistogramSnapshot `json:"hit_latency_ns"`
	} `json:"cache"`
	Cascade struct {
		Enabled             bool    `json:"enabled"`
		ConfidenceThreshold float64 `json:"confidence_threshold"`
		CascadeRequests     int64   `json:"cascade_requests_total"`
		CascadeTiers        struct {
			CascadeStudent int64 `json:"student_total"`
			CascadeTeacher int64 `json:"teacher_total"`
		} `json:"tiers"`
		EscalationRate float64 `json:"escalation_rate"`
		LatencyMS      struct {
			Student histogramSnapshot `json:"student"`
			Teacher histogramSnapshot `json:"teacher"`
		} `json:"latency_ms"`
	} `json:"cascade"`
	Reload struct {
		Generation   int64 `json:"generation"`
		ReloadsTotal int64 `json:"reloads_total"`
	} `json:"reload"`
}

// snapshot collects a point-in-time view of every counter. batching flags
// whether the server dispatches through the micro-batch scheduler; cache
// is the briefing cache (nil when disabled), read for eviction and
// occupancy figures; cascade and threshold describe the student fast path
// (threshold is only meaningful when cascade is set); gen and reloads are
// the hot-reload generation counter and lifetime reload count.
func (m *Metrics) snapshot(pool *Pool, batching bool, cache *briefcache.Cache, cascade bool, threshold float64, gen, reloads int64) metricsSnapshot {
	var s metricsSnapshot
	s.RequestsTotal = m.Requests.Load()
	s.Responses.OK = m.OK.Load()
	s.Responses.BadMethod = m.BadMethod.Load()
	s.Responses.BadRequest = m.BadRequest.Load()
	s.Responses.TooLarge = m.TooLarge.Load()
	s.Responses.Unbriefable = m.Unbriefable.Load()
	s.Responses.Overload = m.Overload.Load()
	s.Responses.Timeout = m.Timeout.Load()
	s.Responses.Canceled = m.Canceled.Load()
	s.Responses.Draining = m.Draining.Load()
	s.Responses.ReplicaFailure = m.ReplicaFailure.Load()
	s.RetriesTotal = m.Retries.Load()
	s.PanicsTotal = m.Panics.Load()
	s.StallsTotal = m.Stalls.Load()
	s.InFlight = m.InFlight.Load()
	s.QueueDepth = m.Queued.Load()
	s.Pool.Replicas = pool.Size()
	s.Pool.Idle = pool.Idle()
	s.Pool.ReplicasHealthy = pool.Healthy()
	s.Pool.Ejections = pool.Ejections()
	s.Pool.Readmissions = pool.Readmissions()
	closed, open, half := pool.BreakerStates()
	s.Pool.BreakerState.Closed = closed
	s.Pool.BreakerState.Open = open
	s.Pool.BreakerState.HalfOpen = half
	s.LatencyMS.QueueWait = m.QueueWait.snapshot()
	s.LatencyMS.Parse = m.Parse.snapshot()
	s.LatencyMS.Encode = m.Encode.snapshot()
	s.LatencyMS.Decode = m.Decode.snapshot()
	s.LatencyMS.Total = m.Total.snapshot()
	s.Batching.Enabled = batching
	s.Batching.BatchesTotal = m.BatchesTotal.Load()
	s.Batching.CoalescedRequestsTotal = m.CoalescedRequests.Load()
	s.Batching.BatchSize = m.BatchSize.snapshot()
	s.Batching.BatchWaitNS = m.BatchWait.snapshot()
	s.Cache.Enabled = cache != nil
	s.Cache.CacheLookups = m.CacheLookups.Load()
	s.Cache.CacheOutcomes.CacheHits = m.CacheHits.Load()
	s.Cache.CacheOutcomes.CacheMisses = m.CacheMisses.Load()
	s.Cache.CacheOutcomes.CacheCoalesced = m.CacheCoalesced.Load()
	if cache != nil {
		s.Cache.Evictions = cache.Evictions()
		s.Cache.Entries = cache.Len()
	}
	s.Cache.HitLatencyNS = m.CacheHitLatency.snapshotWith(cacheHitBucketsNS)
	s.Cascade.Enabled = cascade
	if cascade {
		s.Cascade.ConfidenceThreshold = threshold
	}
	s.Cascade.CascadeRequests = m.CascadeRequests.Load()
	s.Cascade.CascadeTiers.CascadeStudent = m.CascadeStudent.Load()
	s.Cascade.CascadeTiers.CascadeTeacher = m.CascadeTeacher.Load()
	if total := s.Cascade.CascadeRequests; total > 0 {
		s.Cascade.EscalationRate = float64(s.Cascade.CascadeTiers.CascadeTeacher) / float64(total)
	}
	s.Cascade.LatencyMS.Student = m.StudentLatency.snapshot()
	s.Cascade.LatencyMS.Teacher = m.TeacherLatency.snapshot()
	s.Reload.Generation = gen
	s.Reload.ReloadsTotal = reloads
	return s
}
