package wb

import (
	"time"

	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// BatchScratch is the batched counterpart of InferScratch: one no-gradient
// arena tape and pack buffer shared by every instance of a micro-batch, plus
// one beam scratch per batch slot so the batched beam search keeps each
// instance's ping-pong token pools private. A scratch belongs to exactly one
// in-flight batch at a time.
//
// The tape resets at the START of ExtractBriefBatch, so the Outputs it
// returns stay valid — and DecodeTopicBatch may still use them — until the
// next extract call on the same scratch. Briefs hold only strings and ints
// and never alias the tape.
type BatchScratch struct {
	Tape  *ag.Tape
	Pack  *tensor.PackBuf
	beams []*nn.BeamScratch

	vocabSize int // beam scratch presizing, 0 = lazy
	width     int
	maxLen    int
}

// NewBatchScratch returns an empty batched workspace whose buffers grow on
// first use.
func NewBatchScratch() *BatchScratch {
	s := &BatchScratch{
		Tape: ag.NewInferTape(),
		Pack: &tensor.PackBuf{},
	}
	s.Tape.SetPack(s.Pack)
	return s
}

// NewBatchScratchFor presizes the workspace for decoding v-vocabulary topics
// at the given beam width with up to batchMax instances per batch, so the
// first batch is already warm. Any argument may be zero; the corresponding
// buffers then grow lazily.
func NewBatchScratchFor(v *textproc.Vocab, beamWidth, batchMax int) *BatchScratch {
	s := NewBatchScratch()
	if beamWidth > 1 && v != nil {
		s.vocabSize, s.width, s.maxLen = v.Size(), beamWidth, topicMaxLen
		s.beamScratches(batchMax)
	}
	return s
}

// beamScratches returns n per-slot beam scratches, growing the pool on
// demand and reusing warm entries across batches.
func (s *BatchScratch) beamScratches(n int) []*nn.BeamScratch {
	for len(s.beams) < n {
		s.beams = append(s.beams, nn.NewBeamScratch(s.vocabSize, s.width, s.maxLen))
	}
	return s.beams[:n]
}

// ExtractBriefBatch runs one Eval forward for every instance on the shared
// tape — batched through BatchForwarder when the model supports it, per
// instance otherwise — and assembles each extractive brief. The returned
// Outputs feed DecodeTopicBatch and die at the scratch's next reset.
func ExtractBriefBatch(m Model, insts []*Instance, v *textproc.Vocab, s *BatchScratch) ([]*Brief, []*Output) {
	s.Tape.Reset()
	var outs []*Output
	if bf, ok := m.(BatchForwarder); ok && len(insts) > 1 {
		outs = bf.ForwardBatchEval(s.Tape, insts)
	} else {
		outs = make([]*Output, len(insts))
		for i, inst := range insts {
			outs[i] = m.Forward(s.Tape, inst, Eval)
		}
	}
	briefs := make([]*Brief, len(insts))
	for i, out := range outs {
		briefs[i] = extractiveBrief(out, insts[i], v)
	}
	return briefs, outs
}

// DecodeTopicBatch fills briefs[i].Topic by decoding from outs[i] (the
// Outputs ExtractBriefBatch returned, still live on s.Tape). Beam widths > 1
// run one batched beam search across every instance with a generator head;
// width ≤ 1 decodes each greedily. Instances without a generator head keep a
// nil topic, exactly like DecodeTopicWith.
func DecodeTopicBatch(m Model, insts []*Instance, outs []*Output, v *textproc.Vocab, beamWidth int, s *BatchScratch, briefs []*Brief) {
	if beamWidth <= 1 {
		for i, out := range outs {
			if out.Memory == nil || out.Dec == nil {
				continue
			}
			ids := out.Dec.Greedy(s.Tape, out.Memory, textproc.BosID, textproc.EosID, topicMaxLen)
			if ids != nil {
				briefs[i].Topic = v.Tokens(ids)
			}
		}
		return
	}
	// Batch every decodable instance; remember where each came from.
	idx := make([]int, 0, len(outs))
	for i, out := range outs {
		if out.Memory != nil && out.Dec != nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return
	}
	dec := outs[idx[0]].Dec
	mems := make([]*ag.Node, len(idx))
	for k, i := range idx {
		mems[k] = outs[i].Memory
	}
	tokIDs := dec.BeamSearchBatch(s.Tape, mems, textproc.BosID, textproc.EosID,
		beamWidth, topicMaxLen, s.beamScratches(len(idx)))
	for k, i := range idx {
		if tokIDs[k] != nil {
			briefs[i].Topic = v.Tokens(tokIDs[k])
		}
	}
}

// MakeBriefBatch briefs a micro-batch end to end on one workspace: batched
// extract, then batched topic decode. Each returned brief is identical to
// MakeBriefWith on that instance alone.
func MakeBriefBatch(m Model, insts []*Instance, v *textproc.Vocab, beamWidth int, s *BatchScratch) []*Brief {
	briefs, outs := ExtractBriefBatch(m, insts, v, s)
	DecodeTopicBatch(m, insts, outs, v, beamWidth, s, briefs)
	return briefs
}

// Briefing is what one serving-replica call returns for a micro-batch: a
// brief per instance, the call's two stage wall times, and — on a cascade
// replica — each member's tier decision. Every member waited the whole
// call, so both stage times apply to each of them.
type Briefing struct {
	Briefs  []*Brief
	Encode  time.Duration     // the forward pass plus the extractive tail
	Decode  time.Duration     // beam search on that forward, plus any escalation
	Cascade []CascadeDecision // one per instance; nil when no cascade ran
}

// CascadeDecision records how one briefing moved through a confidence
// cascade: the student tier's wall time, whether the briefing escalated,
// and the teacher tier's wall time when it did.
type CascadeDecision struct {
	Escalated bool
	Student   time.Duration
	Teacher   time.Duration
}
