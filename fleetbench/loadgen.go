package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator runs in a child process of its own, so its timers and
// sends are scheduled by the operating system rather than queued behind the
// fleet's CPU-bound goroutines on the same two Go processors. The parent
// hands it the pages once, then one phase at a time, and gets back each
// request's timings, status and a SHA-256 of its body, which the parent
// checks against the oracle. getrusage(RUSAGE_SELF) in the parent therefore
// counts the fleet's CPU alone.

// lgHello is the child's start-up message: the gateway URL and every page.
type lgHello struct {
	URL     string
	Bodies  [][]byte
	Queries []string
}

// lgPhase asks the child to run one phase: open loop when Conc is 0, else a
// closed loop with Conc outstanding requests.
type lgPhase struct {
	At     []time.Duration
	Pages  []int
	Conc   int
	Traced bool
}

// lgResult is one phase as the client saw it.
type lgResult struct {
	Outcomes []outcome
	Spans    []span // client spans of traced requests
}

// outcome is one request as the client saw it.
type outcome struct {
	Lat    time.Duration // intended send → response read (closed loop: send → read)
	Lag    time.Duration // intended send → actual send (open loop only)
	Done   time.Duration // phase start → response read
	Status int           // 0 = transport error
	Sum    [32]byte      // SHA-256 of the response body
}

// loadgen is the parent's handle on the child process.
type loadgen struct {
	cmd *exec.Cmd
	enc *gob.Encoder
	dec *gob.Decoder
	in  io.WriteCloser
}

// startLoadgen starts the child (this executable with -loadgen) and sends
// it the pages.
func startLoadgen(url string, pages []*page) (*loadgen, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	cmd := exec.Command(exe, "-loadgen")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	lg := &loadgen{cmd: cmd, enc: gob.NewEncoder(in), dec: gob.NewDecoder(out), in: in}
	hello := lgHello{URL: url, Bodies: make([][]byte, len(pages)), Queries: make([]string, len(pages))}
	for i, p := range pages {
		hello.Bodies[i], hello.Queries[i] = p.body, p.query
	}
	if err := lg.enc.Encode(hello); err != nil {
		lg.close()
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return lg, nil
}

// run has the child run one phase and waits for its result.
func (lg *loadgen) run(reqs []req, conc int, traced bool) (lgResult, error) {
	ph := lgPhase{At: make([]time.Duration, len(reqs)), Pages: make([]int, len(reqs)), Conc: conc, Traced: traced}
	for i, r := range reqs {
		ph.At[i], ph.Pages[i] = r.at, r.page
	}
	var res lgResult
	if err := lg.enc.Encode(ph); err != nil {
		return res, fmt.Errorf("load generator: %w", err)
	}
	if err := lg.dec.Decode(&res); err != nil {
		return res, fmt.Errorf("load generator: %w", err)
	}
	if len(res.Outcomes) != len(reqs) {
		return res, fmt.Errorf("load generator: %d outcomes for %d requests", len(res.Outcomes), len(reqs))
	}
	return res, nil
}

// close ends the child (closing its stdin is its signal to exit) and waits
// for it; a child still running after 10s is killed.
func (lg *loadgen) close() {
	lg.in.Close()
	done := make(chan struct{})
	go func() {
		lg.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		lg.cmd.Process.Kill()
		<-done
	}
}

// loadgenMain is the child: it serves phases from stdin until stdin closes.
func loadgenMain() error {
	dec := gob.NewDecoder(os.Stdin)
	enc := gob.NewEncoder(os.Stdout)
	var hello lgHello
	if err := dec.Decode(&hello); err != nil {
		return err
	}
	d := newSender(hello)
	defer d.client.CloseIdleConnections()
	for {
		var ph lgPhase
		if err := dec.Decode(&ph); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		var res lgResult
		if ph.Conc == 0 {
			res.Outcomes = d.openLoop(ph)
		} else {
			res.Outcomes = d.closedLoop(ph)
		}
		res.Spans = d.takeSpans()
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
}

// sender sends briefing requests to the gateway.
type sender struct {
	client  *http.Client
	url     string // gateway /brief
	bodies  [][]byte
	queries []string
	rid     atomic.Int64 // last traced request id

	mu    sync.Mutex
	spans []span
}

// maxOutstanding caps the open loop's in-flight requests. Past it the
// generator blocks, which shows up as send lag rather than hidden queueing.
const maxOutstanding = 512

func newSender(h lgHello) *sender {
	return &sender{
		client: &http.Client{
			Timeout: requestBudget + 5*time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        maxOutstanding,
				MaxIdleConnsPerHost: maxOutstanding,
				DisableCompression:  true,
			},
		},
		url:     h.URL + "/brief",
		bodies:  h.Bodies,
		queries: h.Queries,
	}
}

// send posts page p; intended is when the request was due. A traced
// request carries a rid= parameter and records its client span.
func (d *sender) send(p int, start, intended time.Time, traced bool) outcome {
	url := d.url + "?" + d.queries[p]
	rid := 0
	if traced {
		rid = int(d.rid.Add(1))
		url += "&rid=" + strconv.Itoa(rid)
	}
	o := outcome{Lag: time.Since(intended)}
	resp, err := d.client.Post(url, "text/html", bytes.NewReader(d.bodies[p]))
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			o.Status = resp.StatusCode
			o.Sum = sha256.Sum256(body)
		}
	}
	end := time.Now()
	o.Lat = end.Sub(intended)
	o.Done = end.Sub(start)
	if traced {
		d.mu.Lock()
		d.spans = append(d.spans, span{RID: rid, Layer: layerClient, Start: intended.UnixNano(), End: end.UnixNano()})
		d.mu.Unlock()
	}
	return o
}

func (d *sender) takeSpans() []span {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.spans
	d.spans = nil
	return s
}

// openLoop sends each request at its intended offset from now, whatever
// the fleet's progress, and times it from that intended send.
func (d *sender) openLoop(ph lgPhase) []outcome {
	out := make([]outcome, len(ph.At))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range ph.At {
		due := start.Add(at)
		waitUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(i, p int, due time.Time) {
			defer wg.Done()
			out[i] = d.send(p, start, due, ph.Traced)
			<-sem
		}(i, ph.Pages[i], due)
	}
	wg.Wait()
	return out
}

// spinWindow is how long before a send is due the generator stops sleeping
// and polls the clock instead: a sleeping thread's wake-up can run
// milliseconds late on a busy machine, and that lateness would be charged to
// the fleet as latency.
const spinWindow = time.Millisecond

// waitUntil returns at t: it sleeps until spinWindow before, then spins.
func waitUntil(t time.Time) {
	if wait := time.Until(t) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
	}
}

// closedLoop keeps ph.Conc requests outstanding until all are answered.
func (d *sender) closedLoop(ph lgPhase) []outcome {
	out := make([]outcome, len(ph.Pages))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < ph.Conc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.Pages) {
					return
				}
				o := d.send(ph.Pages[i], start, time.Now(), ph.Traced)
				o.Lag = 0
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}
