package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"webbrief/internal/corpus"
	"webbrief/internal/htmldom"
)

// workload is one traffic mix and the fleet configuration it runs against.
// Rates and latency limits are fixed numbers, not derived from the program
// under test, so a faster program faces the same offered load.
type workload struct {
	name string

	cacheCapacity int           // per-backend briefing cache entries
	batchWindow   time.Duration // 0 = batching off
	batchMax      int
	cascade       bool
	threshold     float64 // cascade escalation cutoff

	rate     float64 // mean open-loop arrival rate in the fixed-rate phase, req/s
	sloMS    float64 // latency limit behind slo_ratio
	satConc  int     // outstanding requests in the closed-loop phase
	satGuess float64 // expected closed-loop req/s, used only to size that phase
}

// workloads is the benchmark's traffic, by name; NOTES.md and
// BENCHMARK.json say why each exists. The open-loop rates keep the backend
// that routing favours lightly loaded, so latency reflects service time
// more than queueing on a 2-CPU machine (see NOTES.md).
var workloads = []workload{
	{
		name:          "fresh-short",
		cacheCapacity: 256,
		rate:          20,
		sloMS:         25,
		satConc:       8,
		satGuess:      240,
	},
	{
		name:          "repeat-zipf",
		cacheCapacity: 64,
		rate:          70,
		sloMS:         25,
		satConc:       8,
		satGuess:      850,
	},
	{
		name:          "long-cascade",
		cacheCapacity: 64,
		batchWindow:   2 * time.Millisecond,
		batchMax:      8,
		cascade:       true,
		threshold:     0.05,
		rate:          8,
		sloMS:         400,
		satConc:       4,
		satGuess:      25,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// page is one distinct request body with its routing query and the bytes a
// correct fleet must answer with.
type page struct {
	body  []byte
	src   string // ?src= value
	query string // raw query sent with the request

	want    []byte // serial-oracle response body
	teacher []byte // serial float64 teacher body (== want when the cascade is off)

	wantSum, teacherSum [32]byte // their SHA-256s, what the load generator reports
}

// req is one scheduled request: its intended send offset from the phase
// start (ignored by the closed loop) and the page it posts.
type req struct {
	at   time.Duration
	page int
}

// plan is every input of one run, generated from the seed alone.
type plan struct {
	pages  []*page
	warm   []req // untimed warm-up, open loop
	fixed  []req // fixed-rate open-loop phase
	sat    []req // closed-loop saturation phase
	traced []req // traced open-loop phase (trace runs only)
}

// shapeSeed seeds the load shape: Poisson arrival times and Zipf rank
// draws. It is the same for every seed, so seeds differ in the pages sent,
// not in when they are sent.
const shapeSeed = 1

// Phase lengths: the fixed-rate and closed-loop phases split --seconds;
// the untimed warm-up lasts warmSecs.
const (
	fixedShare = 0.6
	satShare   = 0.4
	warmSecs   = 1.0
)

// makePlan generates the run's pages and schedules. The traced phase
// repeats the fixed-rate phase's shape on fresh draws.
func makePlan(w workload, seed int64, seconds float64, traced bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7))
	shape := rand.New(rand.NewSource(shapeSeed))
	fixedDur := fixedShare * seconds
	nWarm := int(math.Round(w.rate * warmSecs))
	nFixed := int(math.Round(w.rate * fixedDur))
	nSat := int(math.Round(w.satGuess * satShare * seconds))
	nTraced := 0
	if traced {
		nTraced = nFixed
	}
	switch w.name {
	case "fresh-short":
		return freshPlan(rng, shape, nWarm, nFixed, nSat, nTraced, w.rate)
	case "repeat-zipf":
		return zipfPlan(rng, shape, w, nWarm, nFixed, nSat, nTraced)
	case "long-cascade":
		return longPlan(rng, nWarm, nFixed, nSat, nTraced, w.rate)
	}
	return nil, fmt.Errorf("no generator for workload %q", w.name)
}

// poissonAt returns n open-loop send offsets with exponential gaps at rate.
func poissonAt(rng *rand.Rand, n int, rate float64) []time.Duration {
	at := make([]time.Duration, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64() / rate
		at[i] = time.Duration(t * float64(time.Second))
	}
	return at
}

// clumpAt returns n send offsets arriving in bursts of clumpSize requests
// due at the same instant, one burst every clumpSize/rate seconds — a
// fan-out client's on/off traffic. The shape is the same for every seed;
// seeds vary what is sent.
func clumpAt(n int, rate float64) []time.Duration {
	at := make([]time.Duration, n)
	gap := float64(clumpSize) / rate
	for i := range at {
		at[i] = time.Duration(float64(i/clumpSize+1) * gap * float64(time.Second))
	}
	return at
}

func schedule(at []time.Duration, pages []int) []req {
	out := make([]req, len(at))
	for i := range at {
		out[i] = req{at: at[i], page: pages[i]}
	}
	return out
}

// visibleKey is the briefing cache's content key: SHA-256 of the page's
// rendered visible text.
func visibleKey(html string) [32]byte {
	return sha256.Sum256([]byte(htmldom.VisibleText(htmldom.Parse(html))))
}

// corpusPool yields distinct corpus pages from all 24 domains — the 8 the
// fixture was trained on and 16 it never saw — deduplicated on the cache's
// content key so no two pages can share a cache entry.
type corpusPool struct {
	pages []*corpus.Page
	seen  map[[32]byte]bool
}

func newCorpusPool(rng *rand.Rand, n int) (*corpusPool, error) {
	all := corpus.Domains()
	per := n/len(all) + 2
	ds, err := corpus.Generate(corpus.Config{Seed: rng.Int63(), PagesPerDomain: per,
		SeenDomains: fixtureDomains, UnseenDomains: len(all) - fixtureDomains})
	if err != nil {
		return nil, err
	}
	p := &corpusPool{pages: ds.Pages, seen: make(map[[32]byte]bool)}
	rng.Shuffle(len(p.pages), func(i, j int) { p.pages[i], p.pages[j] = p.pages[j], p.pages[i] })
	return p, nil
}

// next returns the next unused page whose visible text is new.
func (p *corpusPool) next() (*corpus.Page, error) {
	for len(p.pages) > 0 {
		cp := p.pages[0]
		p.pages = p.pages[1:]
		k := visibleKey(cp.HTML)
		if p.seen[k] {
			continue
		}
		p.seen[k] = true
		return cp, nil
	}
	return nil, fmt.Errorf("corpus pool exhausted")
}

// attribute builds the ?src= attribution for a page of domain: one of four
// sites per corpus domain, so routing spreads over 96 hosts.
func attribute(rng *rand.Rand, domain string, id int) (src, query string) {
	src = fmt.Sprintf("https://s%d.%s.example/p/%d", rng.Intn(4), domain, id)
	return src, "src=" + src
}

func newPage(rng *rand.Rand, html, domain string, id int) *page {
	src, q := attribute(rng, domain, id)
	return &page{body: []byte(html), src: src, query: q}
}

// freshPlan: every request posts a page no earlier request posted.
func freshPlan(rng, shape *rand.Rand, nWarm, nFixed, nSat, nTraced int, rate float64) (*plan, error) {
	total := nWarm + nFixed + nSat + nTraced
	pool, err := newCorpusPool(rng, total+total/20)
	if err != nil {
		return nil, err
	}
	pl := &plan{}
	take := func(n int) ([]int, error) {
		idx := make([]int, n)
		for i := range idx {
			cp, err := pool.next()
			if err != nil {
				return nil, err
			}
			idx[i] = len(pl.pages)
			pl.pages = append(pl.pages, newPage(rng, cp.HTML, cp.Domain, len(pl.pages)))
		}
		return idx, nil
	}
	phases := []struct {
		n   int
		dst *[]req
	}{{nWarm, &pl.warm}, {nFixed, &pl.fixed}, {nSat, &pl.sat}, {nTraced, &pl.traced}}
	for _, ph := range phases {
		idx, err := take(ph.n)
		if err != nil {
			return nil, err
		}
		*ph.dst = schedule(poissonAt(shape, ph.n, rate), idx)
	}
	return pl, nil
}

// Repeat-mix shape: the working set is 4× one backend's cache; a request
// reposts the exact bytes with probability zipfRawShare, else one of the
// markup-only variants (same visible text, different bytes), which misses
// the raw-bytes key and hits the content key. Every burstEvery of open-loop
// time, burstSize concurrent requests post one never-seen page.
const (
	zipfS        = 1.3
	zipfVariants = 3
	zipfRawShare = 0.7
	burstEvery   = 500 * time.Millisecond
	burstSize    = 6
)

// markupVariant changes markup only: an HTML comment and a data attribute
// leave the visible text, and so the content key and the briefing, as is.
func markupVariant(html string, v int) string {
	if v == 0 {
		return html
	}
	s := strings.Replace(html, "<body>", fmt.Sprintf("<body>\n<!-- rev %d -->", v), 1)
	return strings.Replace(s, "<main>", fmt.Sprintf("<main data-rev=\"%d\">", v), 1)
}

func zipfPlan(rng, shape *rand.Rand, w workload, nWarm, nFixed, nSat, nTraced int) (*plan, error) {
	ws := 4 * w.cacheCapacity
	nBursts := func(n int) int {
		return int(time.Duration(float64(n)/w.rate*float64(time.Second)) / burstEvery)
	}
	cold := nBursts(nFixed) + nBursts(nTraced)
	pool, err := newCorpusPool(rng, ws+cold+(ws+cold)/20)
	if err != nil {
		return nil, err
	}
	pl := &plan{}
	// variants[r][v] is the page index of rank r's variant v.
	variants := make([][zipfVariants]int, ws)
	for r := range variants {
		cp, err := pool.next()
		if err != nil {
			return nil, err
		}
		src, q := attribute(rng, cp.Domain, r)
		for v := 0; v < zipfVariants; v++ {
			html := markupVariant(cp.HTML, v)
			if v > 0 && visibleKey(html) != visibleKey(cp.HTML) {
				return nil, fmt.Errorf("markup variant changed the visible text of %s", cp.ID)
			}
			variants[r][v] = len(pl.pages)
			pl.pages = append(pl.pages, &page{body: []byte(html), src: src, query: q})
		}
	}
	zipf := rand.NewZipf(shape, zipfS, 1, uint64(ws-1))
	draw := func(n int) []int {
		idx := make([]int, n)
		for i := range idx {
			r := zipf.Uint64()
			v := 0
			if shape.Float64() >= zipfRawShare {
				v = 1 + shape.Intn(zipfVariants-1)
			}
			idx[i] = variants[r][v]
		}
		return idx
	}
	// openLoop draws n Poisson-timed repeats and adds the cold-key bursts.
	openLoop := func(n int) ([]req, error) {
		reqs := schedule(poissonAt(shape, n, w.rate), draw(n))
		for b := 1; b <= nBursts(n); b++ {
			cp, err := pool.next()
			if err != nil {
				return nil, err
			}
			at := time.Duration(b) * burstEvery
			pi := len(pl.pages)
			pl.pages = append(pl.pages, newPage(rng, cp.HTML, cp.Domain, ws+pi))
			for k := 0; k < burstSize; k++ {
				reqs = append(reqs, req{at: at, page: pi})
			}
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
		return reqs, nil
	}
	pl.warm = schedule(poissonAt(shape, nWarm, w.rate), draw(nWarm))
	if pl.fixed, err = openLoop(nFixed); err != nil {
		return nil, err
	}
	pl.sat = schedule(make([]time.Duration, nSat), draw(nSat))
	if pl.traced, err = openLoop(nTraced); err != nil {
		return nil, err
	}
	return pl, nil
}

// Long pages: the body sections of several corpus pages of one domain,
// concatenated under one document up to a target length in
// [longMinTokens, longMaxTokens].
const (
	longMinTokens = 500
	longMaxTokens = 2000
	clumpSize     = 4
)

func longPlan(rng *rand.Rand, nWarm, nFixed, nSat, nTraced int, rate float64) (*plan, error) {
	domains := corpus.Domains()
	pl := &plan{}
	nextID := 0
	build := func(target int) *page {
		d := &domains[rng.Intn(len(domains))]
		var b strings.Builder
		tokens := 0
		for first := true; ; first = false {
			cp := corpus.GeneratePage(d, nextID, rng)
			nextID++
			n := 0
			for _, s := range cp.Sentences {
				n += len(s.Tokens) + 1 // + the sentence's [CLS]
			}
			if !first && tokens+n > target {
				break
			}
			head, body, _ := strings.Cut(cp.HTML, "<body>\n")
			body, _, _ = strings.Cut(body, "</body>")
			if first {
				b.WriteString(head)
				b.WriteString("<body>\n")
			}
			b.WriteString(body)
			tokens += n
		}
		b.WriteString("</body>\n</html>\n")
		return newPage(rng, b.String(), d.Name, len(pl.pages))
	}
	// Target lengths follow the golden-ratio sequence over the range: an
	// even, interleaved spread of short and long pages that is the same for
	// every seed, so seeds differ in content, not in the length mix or order.
	take := func(n int) []int {
		idx := make([]int, n)
		for i := range idx {
			frac := math.Mod(float64(i+1)*0.6180339887498949, 1)
			target := longMinTokens + int(frac*float64(longMaxTokens-longMinTokens))
			idx[i] = len(pl.pages)
			pl.pages = append(pl.pages, build(target))
		}
		return idx
	}
	pl.warm = schedule(clumpAt(nWarm, rate), take(nWarm))
	pl.fixed = schedule(clumpAt(nFixed, rate), take(nFixed))
	pl.sat = schedule(make([]time.Duration, nSat), take(nSat))
	pl.traced = schedule(clumpAt(nTraced, rate), take(nTraced))
	return pl, nil
}
