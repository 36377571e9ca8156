package fault

import (
	"time"

	"webbrief/internal/wb"
)

// PipelineReplica is the serve-side replica contract, restated structurally
// so this package needs no import of internal/serve (whose chaos tests
// import this package). serve.Replica and *Replica here are interchangeable.
type PipelineReplica interface {
	Parse(html string) (*wb.Instance, error)
	Brief(insts []*wb.Instance) wb.Briefing
}

// Replica wraps a serving replica with the faults a Schedule draws, one
// draw per Brief call — so one per request, or one per micro-batch, and a
// fault hits every member of the batch it lands on. Parse passes through
// untouched: parse errors mean "bad input" (422) to the serving layer,
// never "bad replica". The kinds map onto replica pathologies:
//
//	Error:   Brief panics before the inner replica runs — the "briefing
//	         engine hit a bug" failure the serve layer must recover, eject
//	         and retry around;
//	Timeout: Brief wedges for TimeoutHang, then completes — the stall the
//	         watchdog must detect and eject, with the replica coming back
//	         probe-able once the wedge resolves;
//	Slow:    Brief is late by the drawn delay but correct;
//	Garbage: Brief panics after the inner replica ran — state corrupted
//	         mid-pipeline.
type Replica struct {
	Inner PipelineReplica
	Sched *Schedule
	// Sleep is the blocking seam (nil = time.Sleep).
	Sleep func(time.Duration)
}

// NewReplica wraps inner with faults drawn from sched.
func NewReplica(inner PipelineReplica, sched *Schedule) *Replica {
	return &Replica{Inner: inner, Sched: sched}
}

func (r *Replica) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Parse passes through to the inner replica.
func (r *Replica) Parse(html string) (*wb.Instance, error) {
	return r.Inner.Parse(html)
}

// Brief draws this call's fault and applies it around the inner Brief.
func (r *Replica) Brief(insts []*wb.Instance) wb.Briefing {
	f := r.Sched.Next()
	switch f.Kind {
	case Error:
		panic("fault: injected replica panic before Brief")
	case Timeout:
		r.sleep(r.Sched.cfg.TimeoutHang)
	case Slow:
		r.sleep(f.Delay)
	}
	res := r.Inner.Brief(insts)
	if f.Kind == Garbage {
		panic("fault: injected replica panic after Brief")
	}
	return res
}
