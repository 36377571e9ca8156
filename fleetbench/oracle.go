package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"webbrief/internal/wb"
)

// beamWidth is the serving tier's default topic beam (serve.Config.BeamWidth
// left zero), which the oracle must match byte for byte.
const beamWidth = 8

// briefJSON renders a briefing exactly as the serving tier writes it:
// json.Encoder output, trailing newline included.
func briefJSON(b *wb.Brief) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fillOracle computes every page's expected response serially per worker
// from public wb functions: the float64 teacher's MakeBriefWith for teacher
// paths, and for the cascade the float32 student's brief when its
// Confidence.Score() ≥ threshold, else the teacher's. Each worker owns a
// serving clone of the model and its own scratch.
func fillOracle(fx *fixture, w workload, pages []*page) error {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = oracleWorker(fx, w, pages, &next)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func oracleWorker(fx *fixture, w workload, pages []*page, next *atomic.Int64) error {
	m, err := wb.CloneForServing(fx.model, fx.vocab)
	if err != nil {
		return fmt.Errorf("oracle clone: %w", err)
	}
	s := wb.NewInferScratchFor(fx.vocab, beamWidth)
	var student *wb.JointWB32
	var s32 *wb.InferScratch32
	if w.cascade {
		if student, err = wb.ConvertJointWB(m); err != nil {
			return fmt.Errorf("oracle student: %w", err)
		}
		s32 = wb.NewInferScratch32For(fx.vocab, beamWidth)
	}
	for {
		i := int(next.Add(1) - 1)
		if i >= len(pages) {
			return nil
		}
		p := pages[i]
		inst := wb.InstanceFromHTML(string(p.body), fx.vocab, 0)
		if inst.NumSents() == 0 {
			return fmt.Errorf("oracle: page %d has no visible text", i)
		}
		if p.teacher, err = briefJSON(wb.MakeBriefWith(m, inst, fx.vocab, beamWidth, s)); err != nil {
			return err
		}
		p.want = p.teacher
		if student != nil {
			b, conf := wb.MakeBriefWith32(student, inst, fx.vocab, beamWidth, s32)
			if conf.Score() >= w.threshold {
				if p.want, err = briefJSON(b); err != nil {
					return err
				}
			}
		}
		p.wantSum, p.teacherSum = sha256.Sum256(p.want), sha256.Sum256(p.teacher)
	}
}
