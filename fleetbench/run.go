package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options is one run's configuration.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	dir      string   // fixture cache and span output ("" = neither)
	fx       *fixture // preset model fixture (tests); nil = train or load it
	corrupt  bool     // test hook: one backend garbles one body
}

// setupBoots is how many times a run boots the fleet; setup_s is the median
// and the last fleet serves the run.
const setupBoots = 3

// lagBound is the open-loop generator's allowed p99 send lag: past it the
// generator, not the fleet, would be shaping the load.
const lagBound = 25 * time.Millisecond

// stageTolerance bounds how far the backends' own total-latency histogram
// sums may differ from the benchmark's backend spans in a traced run.
const stageTolerance = 0.15

// endToEnd names the end-to-end metrics the result line carries: the ones
// that stay steady from run to run on a shared 2-CPU VM (see NOTES.md).
// printedOnly names the rest of the end-to-end set, which every untraced
// run prints by name and unit but which drift with the machine by more than
// a regression bound could absorb.
var (
	endToEnd    = []string{"cpu_ms_per_brief", "mem_peak_mb", "slo_ratio", "teacher_match_ratio", "setup_s"}
	printedOnly = []string{"latency_p50_ms", "latency_tail_ms", "throughput_rps", "fail_ratio"}
)

func run(o options, out io.Writer) (*result, error) {
	w := o.workload
	rep := newReport(out)
	rep.printf("fleetbench: workload %s, seed %d, %gs, trace %v, GOMAXPROCS %d, NumCPU %d\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	fx := o.fx
	if fx == nil {
		var err error
		if fx, err = loadFixture(o.dir, fixtureSeed); err != nil {
			return nil, err
		}
	}
	pl, err := makePlan(w, o.seed, o.seconds, o.trace)
	if err != nil {
		return nil, err
	}
	if err := fillOracle(fx, w, pl.pages); err != nil {
		return nil, err
	}

	spans := &spanLog{}
	runtime.GC()
	mem := startMemSampler()
	defer mem.stop()
	var fl *fleet
	setups := make([]time.Duration, 0, setupBoots)
	for i := 0; i < setupBoots; i++ {
		runtime.GC()
		f, d, err := bootFleet(fx, w, spans, o.corrupt && i == setupBoots-1)
		if err != nil {
			return nil, fmt.Errorf("boot fleet: %w", err)
		}
		setups = append(setups, d)
		if i < setupBoots-1 {
			f.close()
		} else {
			fl = f
		}
	}
	defer fl.close()
	rep.set("setup_s", medianDuration(setups).Seconds(), "s")

	lg, err := startLoadgen(fl.gwTS.URL, pl.pages)
	if err != nil {
		return nil, err
	}
	defer lg.close()
	phase := func(reqs []req, conc int, traced bool) ([]sample, error) {
		res, err := lg.run(reqs, conc, traced)
		if err != nil {
			return nil, err
		}
		spans.add(res.Spans...)
		return judge(res.Outcomes, reqs, pl.pages), nil
	}

	all, err := phase(pl.warm, 0, false)
	if err != nil {
		return nil, err
	}
	nWarm := len(all)
	m0, err := fl.scrape()
	if err != nil {
		return nil, err
	}

	cpu0 := cpuTime()
	fixed, err := phase(pl.fixed, 0, false)
	if err != nil {
		return nil, err
	}
	cpu1 := cpuTime()
	all = append(all, fixed...)
	m1, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	p50, lagP99 := fixedPhase(rep, w, fixed, cpu1-cpu0)

	var second []sample
	if o.trace {
		spans.on.Store(true)
		second, err = phase(pl.traced, 0, true)
		spans.on.Store(false)
	} else {
		second, err = phase(pl.sat, w.satConc, false)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		rep.set("throughput_rps", throughput(second), "req/s")
	}
	all = append(all, second...)
	m2, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	rep.set("mem_peak_mb", float64(mem.stop())/1e6, "MB")
	rep.set("teacher_match_ratio", teacherMatch(append(append([]sample(nil), fixed...), second...)), "ratio")

	failed := len(all) - countOK(all)
	rep.set("fail_ratio", ratio(float64(failed), float64(len(all))), "ratio")
	rep.check(failed == 0, "%d of %d requests failed (non-200 or body differs from the oracle)", failed, len(all))
	window := m2.sub(m0)
	reconcile(rep, w, window, all[nWarm:])
	selfCheck(rep, w, window, lagP99)

	names := endToEnd
	if o.trace {
		if err := layers(rep, o, fx, pl, m2.sub(m1), spans, second, p50); err != nil {
			return nil, err
		}
		names = perLayer
		if o.dir != "" {
			path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
			if err := writeFileAtomic(path, []byte(strings.Join(spans.lines(), "\n")+"\n")); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			rep.printf("spans written to %s\n", path)
		}
	} else {
		rep.print("end-to-end metrics:", append(printedOnly[:len(printedOnly):len(printedOnly)], names...))
	}
	for _, e := range rep.errs {
		rep.printf("CHECK FAILED: %s\n", e)
	}
	return &result{
		Correct:   len(rep.errs) == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics:   rep.pick(names),
	}, nil
}

// throughput is correct briefings per second in the closed-loop phase:
// their count over the time until the last of them completed.
func throughput(ss []sample) float64 {
	var last time.Duration
	for _, s := range ss {
		if s.ok && s.Done > last {
			last = s.Done
		}
	}
	return ratio(float64(countOK(ss)), last.Seconds())
}

// sample is one outcome judged against the oracle.
type sample struct {
	outcome
	ok      bool // 200 with the oracle's exact bytes
	teacher bool // body identical to the float64 teacher's
}

func judge(outs []outcome, reqs []req, pages []*page) []sample {
	s := make([]sample, len(outs))
	for i, o := range outs {
		p := pages[reqs[i].page]
		s[i] = sample{outcome: o, ok: o.Status == 200 && o.Sum == p.wantSum, teacher: o.Sum == p.teacherSum}
	}
	return s
}

// fixedPhase derives the fixed-rate phase's metrics and returns its median
// latency and p99 send lag.
func fixedPhase(rep *report, w workload, fixed []sample, cpu time.Duration) (p50, lagP99 time.Duration) {
	lats := make([]time.Duration, len(fixed))
	lags := make([]time.Duration, len(fixed))
	inSLO := 0
	slo := time.Duration(w.sloMS * float64(time.Millisecond))
	for i, o := range fixed {
		lats[i], lags[i] = o.Lat, o.Lag
		if o.ok && o.Lat <= slo {
			inSLO++
		}
	}
	sorted := sortedDurations(lats)
	p50 = percentile(sorted, 50)
	p, tail, beyond := tailOf(sorted)
	lagP99 = percentile(sortedDurations(lags), 99)
	rep.set("latency_p50_ms", ms(p50), "ms")
	rep.set("latency_tail_ms", ms(tail), "ms")
	rep.set("slo_ratio", ratio(float64(inSLO), float64(len(fixed))), "ratio")
	rep.set("cpu_ms_per_brief", ratio(ms(cpu), float64(countOK(fixed))), "ms")
	rep.set("loadgen.lag_p99_ms", ms(lagP99), "ms")
	rep.printf("fixed-rate phase: %d requests at %g req/s; tail is p%g with %d samples beyond it; SLO %gms\n",
		len(fixed), w.rate, p, beyond, w.sloMS)
	rep.printf("fixed-rate latency ms: p50 %.3f  p75 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  max %.3f; send lag p99 %.3f\n",
		ms(p50), ms(percentile(sorted, 75)), ms(percentile(sorted, 90)), ms(percentile(sorted, 95)),
		ms(percentile(sorted, 99)), ms(percentile(sorted, 100)), ms(lagP99))
	return p50, lagP99
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// teacherMatch is the share of 200 responses byte-identical to the serial
// float64 teacher's briefing.
func teacherMatch(ss []sample) float64 {
	ok, same := 0, 0
	for _, s := range ss {
		if s.Status == 200 {
			ok++
			if s.teacher {
				same++
			}
		}
	}
	return ratio(float64(same), float64(ok))
}

// reconcile checks the client-observed counts of the measured window
// against the gateway's and the backends' /metrics partitions.
func reconcile(rep *report, w workload, d scrape, seen []sample) {
	sent, ok200 := len(seen), 0
	for _, o := range seen {
		if o.Status == 200 {
			ok200++
		}
	}
	eq := func(name string, got, want float64) {
		rep.check(got == want, "reconcile %s: %g, want %g", name, got, want)
	}
	eq("gateway requests_total vs client sent", d.gw["requests_total"], float64(sent))
	eq("gateway requests_total vs its outcomes", d.gw["requests_total"], sumPrefix(d.gw, "responses."))
	eq("gateway backend_requests_total vs its outcomes", d.gw["backend_requests_total"], sumPrefix(d.gw, "outcomes."))
	eq("gateway backend_requests_total vs per-backend blocks", d.gw["backend_requests_total"], sumBackends(d.gw, "requests_total"))
	eq("backend requests_total vs gateway attempts", d.be["requests_total"], d.gw["backend_requests_total"])
	eq("backend requests_total vs its outcomes", d.be["requests_total"], sumPrefix(d.be, "responses."))
	eq("backend ok vs client 200s", d.be["responses.ok"], float64(ok200))
	lookups := d.be["cache.cache_lookups_total"]
	eq("cache_lookups_total vs its outcomes", lookups, sumPrefix(d.be, "cache.outcomes."))
	if w.cacheCapacity > 0 {
		eq("cache_lookups_total vs backend requests_total", lookups, d.be["requests_total"])
	}
	casc := d.be["cascade.cascade_requests_total"]
	eq("cascade_requests_total vs its tiers", casc, sumPrefix(d.be, "cascade.tiers."))
	if w.cascade {
		eq("cascade_requests_total vs cache misses", casc, d.be["cache.outcomes.cache_misses_total"])
	} else {
		eq("cascade_requests_total with the cascade off", casc, 0)
	}
}

func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// sumBackends sums one field over the gateway's per-backend blocks.
func sumBackends(m map[string]float64, field string) float64 {
	s := 0.0
	for i := 0; i < fleetBackends; i++ {
		s += m[fmt.Sprintf("backends.%d.%s", i, field)]
	}
	return s
}

// selfCheck fails the run when the workload stopped exercising what it
// exists to measure.
func selfCheck(rep *report, w workload, d scrape, lagP99 time.Duration) {
	hits := d.be["cache.outcomes.cache_hits_total"]
	coalesced := d.be["cache.outcomes.cache_coalesced_total"]
	switch w.name {
	case "fresh-short":
		rep.check(hits+coalesced == 0, "fresh-short: briefcache.hit_ratio must be 0 (hits %g, coalesced %g)", hits, coalesced)
	case "repeat-zipf":
		ev := d.be["cache.cache_evictions_total"]
		rep.check(hits > 0 && ev > 0 && coalesced > 0,
			"repeat-zipf: needs hits, evictions and coalesced lookups (got %g, %g, %g)", hits, ev, coalesced)
	case "long-cascade":
		mean := ratio(d.be["batching.batch_size.sum"], d.be["batching.batch_size.count"])
		esc := d.be["cascade.tiers.teacher_total"]
		rep.check(mean > 1 && esc > 0, "long-cascade: needs serve.batch_size_mean > 1 and escalations (got %.3f, %g)", mean, esc)
	}
	rep.check(lagP99 < lagBound, "loadgen.lag_p99_ms %.3f is not under %v", ms(lagP99), lagBound)
	rep.check(d.gw["ring.rerouted_total"] == 0 && d.gw["ring.ejections_total"] == 0,
		"gateway rerouted %g / ejected %g backends in a steady run", d.gw["ring.rerouted_total"], d.gw["ring.ejections_total"])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: getrusage: %v\n", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the peak live Go heap — bytes the last completed GC
// found reachable — by sampling runtime/metrics every few milliseconds.
// Live bytes leave out the garbage a GC cycle has yet to collect, so the
// peak does not move with collector timing.
type memSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	once   sync.Once
	peak   uint64
}

const heapLive = "/gc/heap/live:bytes"

func startMemSampler() *memSampler {
	s := &memSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapLive}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > s.peak {
			s.peak = v
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.stopCh:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler to exit and returns the peak.
func (s *memSampler) stop() uint64 {
	s.once.Do(func() { close(s.stopCh) })
	<-s.done
	return s.peak
}
