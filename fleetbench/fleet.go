package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webbrief/internal/gateway"
	"webbrief/internal/serve"
	"webbrief/internal/wb"
)

// fleet is the in-process serving fleet: one gateway and two single-replica
// backends, each on its own loopback httptest listener, so every request
// crosses the gateway's real relay path.
type fleet struct {
	backends []*serve.Server
	beTS     []*httptest.Server
	gw       *gateway.Gateway
	gwTS     *httptest.Server
	client   *http.Client // probes and /metrics scrapes
	relay    *http.Client // the gateway's relay client
}

const (
	fleetBackends = 2
	requestBudget = 30 * time.Second // per-request deadline at both tiers
)

// bootFleet builds the fleet from the fixture snapshot and returns it with
// its set-up time: snapshot decode → serve.New ×2 → Warm → gateway up and
// healthy. spans wraps the gateway and backends in the benchmark's span
// recorders; corrupt, a test hook, makes the first backend garble the
// first briefing body it writes.
func bootFleet(fx *fixture, w workload, spans *spanLog, corrupt bool) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{client: &http.Client{Timeout: 5 * time.Second}}
	for i := 0; i < fleetBackends; i++ {
		m, v, err := wb.DecodeSnapshot(fx.snap)
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("backend %d: %w", i, err)
		}
		srv, err := serve.New(m, v, serve.Config{
			Replicas:            1,
			Timeout:             requestBudget,
			CacheCapacity:       w.cacheCapacity,
			BatchWindow:         w.batchWindow,
			BatchMax:            w.batchMax,
			Cascade:             w.cascade,
			ConfidenceThreshold: w.threshold,
		})
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("backend %d: %w", i, err)
		}
		f.backends = append(f.backends, srv)
		if err := srv.Warm(""); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("backend %d warm: %w", i, err)
		}
		var h http.Handler = spanHandler{next: srv, layer: layerBackend, log: spans}
		if corrupt && i == 0 {
			h = &corruptOnce{next: h}
		}
		f.beTS = append(f.beTS, httptest.NewServer(h))
	}
	f.relay = relayClient(f.beTS)
	gw, err := gateway.New(gateway.Config{
		Backends: backendNames[:],
		Timeout:  requestBudget,
		Client:   f.relay,
	})
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.gw = gw
	f.gwTS = httptest.NewServer(spanHandler{next: gw, layer: layerGateway, log: spans})
	if err := f.waitHealthy(); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// backendNames are the ring members the gateway routes over: fixed
// addresses, as a deployment's backend list would be, so the consistent-hash
// ring — and which hosts each backend owns — is the same in every run. The
// relay client dials each name's actual loopback listener.
var backendNames = [fleetBackends]string{"127.0.0.1:18417", "127.0.0.1:18418"}

// relayClient is the gateway's relay and probe client with the default
// transport sizing, dialling backendNames[i] at listeners[i].
func relayClient(listeners []*httptest.Server) *http.Client {
	real := make(map[string]string, len(listeners))
	for i, ts := range listeners {
		real[backendNames[i]] = ts.Listener.Addr().String()
	}
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 32, // gateway default: MaxConnsPerBackend
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := real[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		},
	}}
}

// waitHealthy polls the gateway's /healthz until every backend is routable.
func (f *fleet) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h struct {
			Status   string `json:"status"`
			Routable int    `json:"routable"`
		}
		resp, err := f.client.Get(f.gwTS.URL + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Routable == fleetBackends {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not healthy after 10s (status %q, routable %d, err %v)", h.Status, h.Routable, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the fleet front to back and waits for every server goroutine.
func (f *fleet) close() {
	if f.gw != nil {
		f.gw.BeginShutdown()
	}
	if f.gwTS != nil {
		f.gwTS.Close()
	}
	for i, srv := range f.backends {
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Drain(ctx)
		cancel()
		if i < len(f.beTS) {
			f.beTS[i].Close()
		}
	}
	f.client.CloseIdleConnections()
	if f.relay != nil {
		f.relay.CloseIdleConnections()
	}
}

// scrape reads the gateway's and every backend's /metrics, flattened to
// dotted paths; backend documents are summed across the fleet.
type scrape struct {
	gw map[string]float64
	be map[string]float64
}

func (f *fleet) scrape() (scrape, error) {
	var s scrape
	var err error
	if s.gw, err = f.getMetrics(f.gwTS.URL); err != nil {
		return s, err
	}
	s.be = map[string]float64{}
	for _, ts := range f.beTS {
		m, err := f.getMetrics(ts.URL)
		if err != nil {
			return s, err
		}
		for k, v := range m {
			s.be[k] += v
		}
	}
	return s, nil
}

func (f *fleet) getMetrics(base string) (map[string]float64, error) {
	resp, err := f.client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	out := map[string]float64{}
	flatten("", doc, out)
	return out, nil
}

// flatten maps a decoded JSON document onto dotted numeric paths
// ("cache.outcomes.cache_hits_total", "backends.0.requests_total");
// booleans become 0/1 and strings are dropped.
func flatten(prefix string, v any, out map[string]float64) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			flatten(join(k), e, out)
		}
	case []any:
		for i, e := range x {
			flatten(join(strconv.Itoa(i)), e, out)
		}
	case float64:
		out[prefix] = x
	case bool:
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}

// delta returns b − a for every path of b.
func delta(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(b))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

func (s scrape) sub(a scrape) scrape {
	return scrape{gw: delta(a.gw, s.gw), be: delta(a.be, s.be)}
}

// Span layers, outermost first.
const (
	layerClient = iota
	layerGateway
	layerBackend
	numLayers
)

var layerNames = [numLayers]string{"client", "gateway", "backend"}

// span is one layer's interval for one request, in wall-clock
// nanoseconds (the load generator records client spans in its own
// process). Spans of one request share its rid; a span's parent is the same
// rid's span one layer out.
type span struct {
	RID        int
	Layer      int
	Start, End int64
}

// spanLog keeps spans in memory while tracing is on; they are written out
// when the run ends.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s ...span) {
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}

// byRID groups span durations per request: durs[rid][layer].
func (l *spanLog) byRID() map[int]*[numLayers]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]*[numLayers]time.Duration)
	for _, s := range l.spans {
		d := out[s.RID]
		if d == nil {
			d = new([numLayers]time.Duration)
			out[s.RID] = d
		}
		d[s.Layer] = time.Duration(s.End - s.Start)
	}
	return out
}

// lines renders the spans as JSON lines, sorted by rid then layer.
func (l *spanLog) lines() []string {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].RID != spans[j].RID {
			return spans[i].RID < spans[j].RID
		}
		return spans[i].Layer < spans[j].Layer
	})
	out := make([]string, len(spans))
	for i, s := range spans {
		parent := ""
		if s.Layer > layerClient {
			parent = layerNames[s.Layer-1]
		}
		out[i] = fmt.Sprintf(`{"rid":%d,"span":%q,"parent":%q,"start_unix_ns":%d,"end_unix_ns":%d}`,
			s.RID, layerNames[s.Layer], parent, s.Start, s.End)
	}
	return out
}

// spanHandler records a span around one tier's ServeHTTP for every traced
// /brief request (those carrying a rid= query parameter while tracing is
// on). Everything else passes straight through.
type spanHandler struct {
	next  http.Handler
	layer int
	log   *spanLog
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.log == nil || !h.log.on.Load() || r.URL.Path != "/brief" {
		h.next.ServeHTTP(w, r)
		return
	}
	rid, ok := ridOf(r.URL.RawQuery)
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.add(span{RID: rid, Layer: h.layer, Start: t0.UnixNano(), End: time.Now().UnixNano()})
}

// ridOf extracts the rid= query parameter the benchmark appends.
func ridOf(rawQuery string) (int, bool) {
	i := strings.Index(rawQuery, "rid=")
	if i < 0 {
		return 0, false
	}
	v := rawQuery[i+len("rid="):]
	if j := strings.IndexByte(v, '&'); j >= 0 {
		v = v[:j]
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// corruptOnce garbles one byte of the first non-empty body written through
// it — the negative test's proof that the oracle catches a wrong answer.
type corruptOnce struct {
	next http.Handler
	done atomic.Bool
}

func (c *corruptOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/brief" || c.done.Load() {
		c.next.ServeHTTP(w, r)
		return
	}
	c.next.ServeHTTP(&corruptWriter{ResponseWriter: w, done: &c.done}, r)
}

type corruptWriter struct {
	http.ResponseWriter
	done *atomic.Bool
}

func (c *corruptWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && c.done.CompareAndSwap(false, true) {
		q := append([]byte(nil), p...)
		q[1] ^= 0x20
		return c.ResponseWriter.Write(q)
	}
	return c.ResponseWriter.Write(p)
}
