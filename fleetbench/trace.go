package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"webbrief/internal/briefcache"
	"webbrief/internal/gateway"
	"webbrief/internal/htmldom"
	"webbrief/internal/tensor"
	"webbrief/internal/wb"
)

// perLayer names the traced run's metrics, in print order.
var perLayer = []string{
	"client.self_ms",
	"gateway.hop_ms", "gateway.route_us", "gateway.backend_skew", "gateway.rerouted_ratio",
	"serve.total_ms", "serve.queue_wait_ms", "serve.batch_wait_ms", "serve.batch_size_mean",
	"serve.coalesced_ratio", "serve.shed_ratio", "serve.parse_ms", "serve.encode_ms",
	"serve.decode_ms", "serve.other_ms",
	"briefcache.hit_ratio", "briefcache.coalesced_ratio", "briefcache.evictions_per_req",
	"briefcache.hit_us", "briefcache.lookup_us",
	"parse.ms", "parse.tokens_mean",
	"encode.ms", "encode.us_per_token", "tensor.matmul_gflops",
	"decode.ms",
	"cascade.escalation_ratio", "cascade.student_ms", "cascade.teacher_ms",
	"respond.json_us",
	"loadgen.lag_p99_ms", "trace.overhead_ratio", "trace.stage_coverage",
}

// replayBudget bounds the serial per-layer replay of the traced pages.
const replayBudget = 1500 * time.Millisecond

// layers derives the per-layer metrics of a traced run: span self times
// and in-server stage sums over the traced phase (d is its /metrics
// delta), a serial replay of the traced pages through each model layer's
// public functions, and direct timings of routing, cache lookup and the
// gate-shaped matmul.
func layers(rep *report, o options, fx *fixture, pl *plan, d scrape, spans *spanLog, traced []sample, untracedP50 time.Duration) error {
	w := o.workload

	// Spans: client and gateway self times, backend span totals.
	var clientSelf, hop, backendSpan time.Duration
	n := 0
	for _, s := range spans.byRID() {
		if s[layerClient] == 0 || s[layerGateway] == 0 || s[layerBackend] == 0 {
			continue
		}
		clientSelf += s[layerClient] - s[layerGateway]
		hop += s[layerGateway] - s[layerBackend]
		backendSpan += s[layerBackend]
		n++
	}
	rep.check(n == len(traced), "traced run: %d of %d requests have all three spans", n, len(traced))
	perReq := func(t time.Duration) float64 { return ratio(ms(t), float64(n)) }
	rep.set("client.self_ms", perReq(clientSelf), "ms")
	rep.set("gateway.hop_ms", perReq(hop), "ms")

	// Backend stage sums from the backends' own histograms.
	be := d.be
	stage := func(name string) float64 { return be["latency_ms."+name+".sum_ms"] }
	perObs := func(name string) float64 {
		return ratio(stage(name), be["latency_ms."+name+".count"])
	}
	reqs := be["latency_ms.total.count"]
	total := stage("total")
	other := total - stage("queue_wait") - stage("parse") - stage("encode") - stage("decode")
	rep.set("serve.total_ms", ratio(total, reqs), "ms")
	rep.set("serve.queue_wait_ms", perObs("queue_wait"), "ms")
	rep.set("serve.batch_wait_ms", ratio(be["batching.batch_wait_ns.sum_ns"], be["batching.batch_wait_ns.count"])/1e6, "ms")
	rep.set("serve.batch_size_mean", ratio(be["batching.batch_size.sum"], be["batching.batch_size.count"]), "count")
	rep.set("serve.coalesced_ratio", ratio(be["batching.coalesced_requests_total"], be["batching.batch_size.sum"]), "ratio")
	rep.set("serve.shed_ratio", ratio(be["responses.overload"], be["requests_total"]), "ratio")
	rep.set("serve.parse_ms", perObs("parse"), "ms")
	rep.set("serve.encode_ms", perObs("encode"), "ms")
	rep.set("serve.decode_ms", perObs("decode"), "ms")
	rep.set("serve.other_ms", ratio(other, reqs), "ms")
	coverage := ratio(total, ms(backendSpan))
	rep.set("trace.stage_coverage", coverage, "ratio")
	rep.check(coverage > 1-stageTolerance && coverage < 1+stageTolerance,
		"backend stage sums cover %.3f of the backend spans, outside 1±%g", coverage, stageTolerance)

	// Gateway routing balance.
	var maxReq, sumReq float64
	for i := 0; i < fleetBackends; i++ {
		v := d.gw[fmt.Sprintf("backends.%d.requests_total", i)]
		sumReq += v
		if v > maxReq {
			maxReq = v
		}
	}
	rep.set("gateway.backend_skew", ratio(maxReq, sumReq/fleetBackends), "ratio")
	rep.set("gateway.rerouted_ratio", ratio(d.gw["ring.rerouted_total"], d.gw["requests_total"]), "ratio")

	// Cache.
	lookups := be["cache.cache_lookups_total"]
	rep.set("briefcache.hit_ratio", ratio(be["cache.outcomes.cache_hits_total"], lookups), "ratio")
	rep.set("briefcache.coalesced_ratio", ratio(be["cache.outcomes.cache_coalesced_total"], lookups), "ratio")
	rep.set("briefcache.evictions_per_req", ratio(be["cache.cache_evictions_total"], lookups), "ratio")
	rep.set("briefcache.hit_us", ratio(be["cache.hit_latency_ns.sum_ns"], be["cache.hit_latency_ns.count"])/1e3, "us")
	rep.set("cascade.escalation_ratio", ratio(be["cascade.tiers.teacher_total"], be["cascade.cascade_requests_total"]), "ratio")

	// Untraced vs traced median latency.
	lats := make([]time.Duration, len(traced))
	for i, t := range traced {
		lats[i] = t.Lat
	}
	rep.set("trace.overhead_ratio", ratio(ms(medianDuration(lats)), ms(untracedP50)), "ratio")

	if err := replay(rep, w, fx, distinctPages(pl, pl.traced)); err != nil {
		return err
	}
	microRoute(rep, pl)
	microLookup(rep, w, pl)
	microMatMul(rep)

	rep.print("per-layer metrics:", perLayer)
	selfTable(rep, perReq(clientSelf), perReq(hop), perReq(backendSpan), be, reqs)
	return nil
}

// selfTable prints where one traced request's time went, per layer, as
// means per request: the client's own share, the gateway hop, and the
// backend span split by the backends' stage histograms.
func selfTable(rep *report, client, hop, backend float64, be map[string]float64, reqs float64) {
	stage := func(name string) float64 { return ratio(be["latency_ms."+name+".sum_ms"], reqs) }
	rows := []struct {
		name string
		v    float64
	}{
		{"client (HTTP client, loopback, send lag)", client},
		{"gateway hop (routing, relay)", hop},
		{"backend outside handler", backend - stage("total")},
		{"serve admission + batch wait", stage("queue_wait")},
		{"serve parse", stage("parse")},
		{"serve encode", stage("encode")},
		{"serve decode (+ escalation)", stage("decode")},
		{"serve other (cache, JSON, write)", stage("total") - stage("queue_wait") - stage("parse") - stage("encode") - stage("decode")},
	}
	sum := client + hop + backend
	rep.printf("self time per traced request (mean ms, share of client span):\n")
	for _, r := range rows {
		rep.printf("  %-42s %9.4f  %5.1f%%\n", r.name, r.v, 100*ratio(r.v, sum))
	}
}

// distinctPages returns the pages reqs post, first use first.
func distinctPages(pl *plan, reqs []req) []*page {
	seen := make(map[int]bool)
	var out []*page
	for _, r := range reqs {
		if !seen[r.page] {
			seen[r.page] = true
			out = append(out, pl.pages[r.page])
		}
	}
	return out
}

// replay briefs pages serially through each model layer's public entry
// point and times each call: parse (wb.InstanceFromHTML), encode
// (wb.ExtractBriefWith: BiLSTM forward and extractor tail), decode
// (wb.DecodeTopicWith: forward and beam search, as the serving tier's
// decode stage runs it), the float32 student (wb.MakeBriefWith32 and
// Confidence.Score) on cascade workloads, and the JSON response encode.
// The replayed teacher and cascade bodies must equal the oracle's.
func replay(rep *report, w workload, fx *fixture, pages []*page) error {
	m, err := wb.CloneForServing(fx.model, fx.vocab)
	if err != nil {
		return err
	}
	v := fx.vocab
	s := wb.NewInferScratchFor(v, beamWidth)
	var student *wb.JointWB32
	var s32 *wb.InferScratch32
	if w.cascade {
		if student, err = wb.ConvertJointWB(m); err != nil {
			return err
		}
		s32 = wb.NewInferScratch32For(v, beamWidth)
	}
	var parse, encode, decode, jsonT, studentT, teacherT time.Duration
	var tokens, escalated, done int
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	start := time.Now()
	for _, p := range pages {
		if done > 0 && time.Since(start) > replayBudget {
			break
		}
		t0 := time.Now()
		inst := wb.InstanceFromHTML(string(p.body), v, 0)
		t1 := time.Now()
		b := wb.ExtractBriefWith(m, inst, v, s)
		t2 := time.Now()
		b.Topic = wb.DecodeTopicWith(m, inst, v, beamWidth, s)
		t3 := time.Now()
		buf.Reset()
		if err := enc.Encode(b); err != nil {
			return err
		}
		t4 := time.Now()
		parse += t1.Sub(t0)
		encode += t2.Sub(t1)
		decode += t3.Sub(t2)
		jsonT += t4.Sub(t3)
		tokens += inst.NumTokens()
		rep.check(bytes.Equal(buf.Bytes(), p.teacher), "replay: teacher brief differs from the oracle")
		if student != nil {
			t5 := time.Now()
			sb, conf := wb.MakeBriefWith32(student, inst, v, beamWidth, s32)
			keep := conf.Score() >= w.threshold
			studentT += time.Since(t5)
			if !keep {
				escalated++
				teacherT += t3.Sub(t1)
			} else if sj, err := briefJSON(sb); err != nil || !bytes.Equal(sj, p.want) {
				rep.check(false, "replay: student brief differs from the oracle")
			}
		}
		done++
	}
	per := func(t time.Duration, k int) float64 { return ratio(ms(t), float64(k)) }
	rep.set("parse.ms", per(parse, done), "ms")
	rep.set("parse.tokens_mean", ratio(float64(tokens), float64(done)), "count")
	rep.set("encode.ms", per(encode, done), "ms")
	rep.set("encode.us_per_token", ratio(float64(encode.Microseconds()), float64(tokens)), "us")
	rep.set("decode.ms", per(decode, done), "ms")
	rep.set("respond.json_us", per(jsonT, done)*1e3, "us")
	rep.set("cascade.student_ms", per(studentT, done), "ms")
	rep.set("cascade.teacher_ms", per(teacherT, escalated), "ms")
	rep.printf("serial replay: %d of %d traced pages, %d escalated\n", done, len(pages), escalated)
	return nil
}

// timeLoop runs fn over n items repeatedly until at least minDur has
// passed and returns the mean time per item.
func timeLoop(n int, minDur time.Duration, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < minDur {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls)
}

// microRoute times the gateway's routing decision, RouteKey plus
// Ring.Candidates, over the traced requests on the fleet's own ring.
func microRoute(rep *report, pl *plan) {
	ring := gateway.NewRing(backendNames[:], gateway.DefaultVNodes)
	reqs := pl.traced
	per := timeLoop(len(reqs), 50*time.Millisecond, func(i int) {
		p := pl.pages[reqs[i].page]
		ring.Candidates(gateway.RouteKey(p.query, p.src, p.body), 0)
	})
	rep.set("gateway.route_us", float64(per)/1e3, "us")
}

// microLookup times the cache's raw-bytes probe, KeyOf plus LookupRaw, over
// the traced request sequence on a cache of the workload's capacity that
// the sequence itself has filled once (a miss inserts, untimed).
func microLookup(rep *report, w workload, pl *plan) {
	c := briefcache.New(briefcache.Config{Capacity: w.cacheCapacity})
	reqs := pl.traced
	contentKeys := make([]briefcache.Key, len(reqs))
	for i, r := range reqs {
		body := pl.pages[r.page].body
		contentKeys[i] = briefcache.KeyOf([]byte(htmldom.VisibleText(htmldom.Parse(string(body)))))
	}
	fill := func(i int) {
		p := pl.pages[reqs[i].page]
		raw := briefcache.KeyOf(p.body)
		if _, ok := c.LookupRaw(raw); !ok {
			if _, ok := c.Lookup(contentKeys[i]); ok {
				c.Alias(raw, contentKeys[i])
			} else {
				c.Insert(contentKeys[i], raw, p.want, 0)
			}
		}
	}
	for i := range reqs {
		fill(i)
	}
	var probe time.Duration
	calls := 0
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		for i, r := range reqs {
			t0 := time.Now()
			raw := briefcache.KeyOf(pl.pages[r.page].body)
			_, ok := c.LookupRaw(raw)
			probe += time.Since(t0)
			calls++
			if !ok {
				fill(i)
			}
		}
		if len(reqs) == 0 {
			break
		}
	}
	rep.set("briefcache.lookup_us", ratio(float64(probe.Nanoseconds()), float64(calls))/1e3, "us")
}

// microMatMul times tensor's packed matmul at the BiLSTM gate shapes of a
// full micro-batch — (batchMax × d)·(d × 4h) for the input projection and
// (batchMax × h)·(h × 4h) for the recurrent one — counting 2·m·k·n FLOPs
// per product.
func microMatMul(rep *report) {
	const rows = 8
	rng := rand.New(rand.NewSource(1))
	fill := func(r, c int) *tensor.Matrix {
		m := tensor.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.Float64()*2 - 1
		}
		return m
	}
	x, wx := fill(rows, fixtureDim), fill(fixtureDim, 4*fixtureHidden)
	h, wh := fill(rows, fixtureHidden), fill(fixtureHidden, 4*fixtureHidden)
	dst := tensor.New(rows, 4*fixtureHidden)
	pack := &tensor.PackBuf{}
	flops := 2 * float64(rows*4*fixtureHidden) * float64(fixtureDim+fixtureHidden)
	per := timeLoop(100, 100*time.Millisecond, func(int) {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		tensor.MatMulPackInto(dst, x, wx, pack)
		tensor.MatMulPackInto(dst, h, wh, pack)
	})
	rep.set("tensor.matmul_gflops", flops/float64(per.Nanoseconds()), "GFLOP/s")
}
