package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// WarmupHTML builds a synthetic page with roughly n visible tokens (0 = 512)
// — a max-shape stand-in for Warm so every first-use buffer growth (arena
// blocks, pack panels, beam pools) happens before real traffic.
func WarmupHTML(n int) string {
	if n <= 0 {
		n = 512
	}
	words := []string{
		"alpha", "baseline", "briefing", "capacity", "decode", "encode",
		"forward", "kernel", "latency", "micro", "replica", "scratch",
		"tensor", "throughput", "vector", "window",
	}
	var b strings.Builder
	b.WriteString("<html><head><title>warmup page shape</title></head><body><h1>Warmup briefing page</h1>")
	for i := 0; i < n; i += 8 {
		b.WriteString("<p>")
		for j := 0; j < 8; j++ {
			b.WriteString(words[(i+j)%len(words)])
			b.WriteByte(' ')
		}
		b.WriteString("</p>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Replica is one independently-forwardable briefing engine, checked out of
// a Pool for the duration of a request or micro-batch. It has two stages,
// and the serving layer times each one and checks every member's deadline
// after each:
//
//	Parse: raw HTML → model instance (DOM parse, visible text, encoding)
//	Brief: one eval forward over the whole batch → attributes, section
//	       flags and beam-searched topic per instance (plus any cascade
//	       escalation), with the encode/decode split timed inside
//
// A single request is a batch of one. Brief keeps no state between calls.
type Replica interface {
	Parse(html string) (*wb.Instance, error)
	Brief(insts []*wb.Instance) wb.Briefing
}

// modelReplica adapts one Joint-WB model (the original or a
// wb.CloneForServing copy) to the Replica interface. The vocabulary is
// shared across all replicas: it is read-only after construction. Each
// replica owns its batched inference workspace — a replica serves one
// checkout at a time (Pool checkout is exclusive), so the scratch is never
// shared between concurrent requests.
//
// With a student attached (NewCascadePool), the replica runs the
// confidence-gated cascade: Brief runs on the float32 student first, and
// members whose decode confidence score falls below threshold re-brief on
// the float64 teacher under the same checkout. The student weights are
// read-only at inference, so one *wb.JointWB32 is shared by every replica;
// the float32 scratch is per-replica like the float64 one.
type modelReplica struct {
	model     wb.Model
	vocab     *textproc.Vocab
	beam      int
	maxTokens int
	batch     *wb.BatchScratch

	student   *wb.JointWB32 // float32 fast path, nil = teacher-only replica
	threshold float64       // escalate when confidence score < threshold
	sbatch    *wb.BatchScratch32
}

// Parse implements Replica.
func (r *modelReplica) Parse(html string) (*wb.Instance, error) {
	inst := wb.InstanceFromHTML(html, r.vocab, r.maxTokens)
	if inst.NumSents() == 0 {
		return nil, fmt.Errorf("serve: no visible text in page")
	}
	return inst, nil
}

// Brief implements Replica: one Eval forward for the whole batch (fused
// B-row when it has two or more members), whose outputs feed both the
// extractive tail and the beam search. On a cascade replica the student
// briefs first and the low-confidence members re-brief once on the teacher
// through the same batched call: an escalation replaces the whole brief
// (extraction and topic), so every answer a client sees came entirely from
// one tier.
func (r *modelReplica) Brief(insts []*wb.Instance) wb.Briefing {
	if r.student == nil {
		return r.teacherBrief(insts)
	}
	t0 := time.Now()
	briefs, outs := wb.ExtractBriefBatch32(r.student, insts, r.vocab, r.sbatch)
	t1 := time.Now()
	confs := wb.DecodeTopicBatch32(r.student, insts, outs, r.vocab, r.beam, r.sbatch, briefs)
	res := wb.Briefing{Briefs: briefs, Encode: t1.Sub(t0), Cascade: make([]wb.CascadeDecision, len(insts))}
	student := time.Since(t0)
	var esc []int
	for i, c := range confs {
		res.Cascade[i].Student = student
		if c.Score() < r.threshold {
			esc = append(esc, i)
		}
	}
	if len(esc) > 0 {
		escInsts := make([]*wb.Instance, len(esc))
		for j, i := range esc {
			escInsts[j] = insts[i]
		}
		t2 := time.Now()
		teacher := r.teacherBrief(escInsts).Briefs
		tdur := time.Since(t2)
		for j, i := range esc {
			briefs[i] = teacher[j]
			res.Cascade[i].Escalated = true
			res.Cascade[i].Teacher = tdur
		}
	}
	res.Decode = time.Since(t1)
	return res
}

// teacherBrief briefs insts on the float64 teacher: the whole pipeline of
// a teacher-only replica, and a cascade replica's escalation target.
func (r *modelReplica) teacherBrief(insts []*wb.Instance) wb.Briefing {
	t0 := time.Now()
	briefs, outs := wb.ExtractBriefBatch(r.model, insts, r.vocab, r.batch)
	t1 := time.Now()
	wb.DecodeTopicBatch(r.model, insts, outs, r.vocab, r.beam, r.batch, briefs)
	return wb.Briefing{Briefs: briefs, Encode: t1.Sub(t0), Decode: time.Since(t1)}
}

// BreakerState is the health state of one replica, circuit-breaker style.
type BreakerState int

// The replica breaker states.
const (
	BreakerClosed   BreakerState = iota // healthy, in rotation
	BreakerOpen                         // ejected after a panic or stall, out of rotation
	BreakerHalfOpen                     // out of rotation, re-admission probes running
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half_open"
	}
}

// Pool holds a fixed set of interchangeable eval-mode replicas. A request
// checks one out with Get, briefs on it exclusively, and returns it with
// Put — so up to Size briefings proceed concurrently with no shared mutex,
// unlike wb.Briefer which serialises every forward pass behind one lock.
//
// The pool also tracks per-replica health: a replica that panics or wedges
// is Ejected (breaker open) instead of Put back, shrinking capacity but
// never poisoning later requests; re-admission probing (serve.Server)
// moves it through half-open back to closed once it briefs cleanly again.
type Pool struct {
	size int
	idle chan Replica

	mu           sync.Mutex
	state        map[Replica]BreakerState
	healthy      int
	ejections    int64
	readmissions int64
}

// NewPool builds n replicas of m (0 → GOMAXPROCS): the original model plus
// n-1 serving clones that share only the read-only embedding table. The
// clones come from one wb.CloneManyForServing call, so the model is
// snapshot-encoded once, not once per replica. beam and maxTokens configure
// each replica exactly like wb.NewBriefer, so pooled briefings are
// identical to the serial path's.
func NewPool(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int) (*Pool, error) {
	reps, err := newModelReplicas(m, v, n, beam, maxTokens)
	if err != nil {
		return nil, err
	}
	replicas := make([]Replica, len(reps))
	for i, r := range reps {
		replicas[i] = r
	}
	return PoolOf(replicas...), nil
}

// NewCascadePool builds a pool whose replicas run the float32 student fast
// path with confidence-gated escalation to the float64 teacher: the model
// is converted once with wb.ConvertJointWB (GloVe-encoder models only) and
// the read-only student weights are shared across all replicas, each of
// which owns its own float32 scratch workspaces. threshold is the
// escalation cutoff on the decode confidence score: ≤ 0 never escalates,
// > 1 escalates every briefing.
func NewCascadePool(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int, threshold float64) (*Pool, error) {
	reps, err := newModelReplicas(m, v, n, beam, maxTokens)
	if err != nil {
		return nil, err
	}
	student, err := wb.ConvertJointWB(m)
	if err != nil {
		return nil, fmt.Errorf("serve: float32 student: %w", err)
	}
	replicas := make([]Replica, len(reps))
	for i, r := range reps {
		r.student = student
		r.threshold = threshold
		r.sbatch = wb.NewBatchScratch32For(v, beam, 0)
		replicas[i] = r
	}
	return PoolOf(replicas...), nil
}

// newModelReplicas builds the n teacher replicas NewPool and NewCascadePool
// share: the original model plus n-1 serving clones.
func newModelReplicas(m *wb.JointWB, v *textproc.Vocab, n, beam, maxTokens int) ([]*modelReplica, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	replicas := make([]*modelReplica, n)
	replicas[0] = &modelReplica{
		model: m, vocab: v, beam: beam, maxTokens: maxTokens,
		batch: wb.NewBatchScratchFor(v, beam, 0),
	}
	if n > 1 {
		clones, err := wb.CloneManyForServing(m, v, n-1)
		if err != nil {
			return nil, fmt.Errorf("serve: clone replicas: %w", err)
		}
		for i, c := range clones {
			replicas[i+1] = &modelReplica{
				model: c, vocab: v, beam: beam, maxTokens: maxTokens,
				batch: wb.NewBatchScratchFor(v, beam, 0),
			}
		}
	}
	return replicas, nil
}

// PoolOf wraps pre-built replicas — the seam for serving a non-GloVe model
// or, in tests, replicas with controlled latency or injected faults.
func PoolOf(replicas ...Replica) *Pool {
	p := &Pool{
		size:    len(replicas),
		idle:    make(chan Replica, len(replicas)),
		state:   make(map[Replica]BreakerState, len(replicas)),
		healthy: len(replicas),
	}
	for _, r := range replicas {
		p.state[r] = BreakerClosed
		p.idle <- r
	}
	return p
}

// Warm briefs width copies of html as one batch, twice, on every replica
// so each scratch workspace grows its arena, pack and beam buffers to
// steady state before real traffic arrives; the first request per replica
// then runs the same allocation-free path as every later one. Two passes
// because first-use growth (arena blocks, pack panels, beam pools) happens
// during the first brief — the second proves the workspace has stopped
// growing for this page shape. On a cascade replica the teacher is warmed
// at the same width too, so an escalation never hits a cold scratch. Warm
// with a max-shape page (see WarmupHTML) and the widest batch the server
// forms, so one-time growth never shows up in per-request numbers. Call it
// before serving starts: it requires a fully idle pool and checks all
// replicas out while it runs.
func (p *Pool) Warm(html string, width int) error {
	if p.Idle() != p.size {
		return fmt.Errorf("serve: Warm needs an idle pool (%d of %d idle)", p.Idle(), p.size)
	}
	checked := make([]Replica, 0, p.size)
	defer func() {
		for _, r := range checked {
			p.Put(r)
		}
	}()
	for i := 0; i < p.size; i++ {
		r, ok := p.TryGet()
		if !ok {
			return fmt.Errorf("serve: pool emptied during Warm")
		}
		checked = append(checked, r)
		inst, err := r.Parse(html)
		if err != nil {
			return fmt.Errorf("serve: warmup page: %w", err)
		}
		insts := make([]*wb.Instance, max(width, 1))
		for j := range insts {
			insts[j] = inst
		}
		for pass := 0; pass < 2; pass++ {
			r.Brief(insts)
			if mr, ok := r.(*modelReplica); ok && mr.student != nil {
				mr.teacherBrief(insts)
			}
		}
	}
	return nil
}

// WrapOne replaces one idle replica with wrap(replica) — the seam
// cmd/wbserve's -chaos flag uses to fault-inject a live pool member for
// resilience drills. The wrapped replica inherits a closed breaker; health
// accounting is unchanged.
func (p *Pool) WrapOne(wrap func(Replica) Replica) error {
	r, ok := p.TryGet()
	if !ok {
		return fmt.Errorf("serve: WrapOne needs an idle replica")
	}
	w := wrap(r)
	p.mu.Lock()
	delete(p.state, r)
	p.state[w] = BreakerClosed
	p.mu.Unlock()
	p.idle <- w
	return nil
}

// Get checks a replica out, blocking until one is idle or ctx is done.
func (p *Pool) Get(ctx context.Context) (Replica, error) {
	select {
	case r := <-p.idle:
		return r, nil
	default:
	}
	select {
	case r := <-p.idle:
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryGet checks a replica out only if one is idle right now.
func (p *Pool) TryGet() (Replica, bool) {
	select {
	case r := <-p.idle:
		return r, true
	default:
		return nil, false
	}
}

// Put returns a replica to the pool.
func (p *Pool) Put(r Replica) { p.idle <- r }

// Eject takes a checked-out replica out of rotation (breaker open) instead
// of Putting it back: capacity shrinks by one, but the suspect replica can
// never serve another request until Readmit. Ejecting an already-open
// replica is a no-op (the stall watchdog and a late panic can race).
func (p *Pool) Eject(r Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state[r] != BreakerClosed {
		return
	}
	p.state[r] = BreakerOpen
	p.healthy--
	p.ejections++
}

// BeginProbe marks an ejected replica half-open while re-admission probes
// run against it.
func (p *Pool) BeginProbe(r Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state[r] == BreakerOpen {
		p.state[r] = BreakerHalfOpen
	}
}

// Readmit closes an ejected replica's breaker and returns it to rotation.
func (p *Pool) Readmit(r Replica) {
	p.mu.Lock()
	if p.state[r] == BreakerClosed {
		p.mu.Unlock()
		return
	}
	p.state[r] = BreakerClosed
	p.healthy++
	p.readmissions++
	p.mu.Unlock()
	p.idle <- r
}

// Healthy is the number of replicas whose breaker is closed.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// BreakerStates counts replicas per breaker state, for /metrics.
func (p *Pool) BreakerStates() (closed, open, halfOpen int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.state {
		switch s {
		case BreakerClosed:
			closed++
		case BreakerOpen:
			open++
		default:
			halfOpen++
		}
	}
	return
}

// Ejections and Readmissions are lifetime counters, for /metrics.
func (p *Pool) Ejections() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ejections
}

// Readmissions is the lifetime count of replicas returned to rotation.
func (p *Pool) Readmissions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readmissions
}

// Size is the number of replicas the pool was built with.
func (p *Pool) Size() int { return p.size }

// Idle is the number of replicas currently checked in.
func (p *Pool) Idle() int { return len(p.idle) }
