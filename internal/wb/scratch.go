package wb

import (
	"sync"

	"webbrief/internal/ag"
	"webbrief/internal/eval"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
	"webbrief/internal/textproc"
)

// InferScratch is a per-call inference workspace: a no-gradient arena tape,
// the matmul pack buffer it routes products through, and the beam-search
// buffers. A warm scratch makes ExtractBriefWith/DecodeTopicWith
// allocation-free apart from the assembled Brief itself.
//
// Ownership contract: a scratch belongs to exactly one in-flight request at
// a time — the package pool hands each transient caller a private one, and
// resident callers hold their own (serving replicas own a BatchScratch
// instead). The scratch resets its own tape at the
// START of each forward (not the end), so returned Briefs — which hold only
// strings and ints, never tensor memory — stay valid while the scratch is
// reused. Nothing that aliases the tape arena may escape a With-call.
type InferScratch struct {
	Tape *ag.Tape
	Pack *tensor.PackBuf
	Beam *nn.BeamScratch
}

// NewInferScratch returns an empty workspace whose buffers grow on first
// use.
func NewInferScratch() *InferScratch {
	s := &InferScratch{
		Tape: ag.NewInferTape(),
		Pack: &tensor.PackBuf{},
		Beam: nn.NewBeamScratch(0, 0, 0),
	}
	s.Tape.SetPack(s.Pack)
	return s
}

// NewInferScratchFor returns a workspace with the beam buffers presized for
// decoding v-vocabulary topics at the given beam width, so the first request
// is already warm. Width ≤ 1 (greedy decoding) still gets a usable scratch.
func NewInferScratchFor(v *textproc.Vocab, beamWidth int) *InferScratch {
	s := NewInferScratch()
	if beamWidth > 1 && v != nil {
		s.Beam = nn.NewBeamScratch(v.Size(), beamWidth, topicMaxLen)
	}
	return s
}

// scratchPool recycles workspaces for callers without a resident replica
// (eval loops, CLI one-shots).
var scratchPool = sync.Pool{New: func() any { return NewInferScratch() }}

// GetScratch returns a workspace from the package pool. Pair with
// PutScratch.
func GetScratch() *InferScratch { return scratchPool.Get().(*InferScratch) }

// PutScratch returns a workspace to the package pool. The caller must not
// retain the tape or any tensor drawn from it.
func PutScratch(s *InferScratch) { scratchPool.Put(s) }

// ExtractBriefWith is ExtractBrief running on the caller's workspace: the
// extractive half of the serial reference path used by wb.Briefer and the
// benchmark oracle. It runs its own forward; GenerateTopicWith runs another.
func ExtractBriefWith(m Model, inst *Instance, v *textproc.Vocab, s *InferScratch) *Brief {
	s.Tape.Reset()
	out := m.Forward(s.Tape, inst, Eval)
	return extractiveBrief(out, inst, v)
}

// extractiveBrief assembles the extractive half of a briefing from a
// forward-pass output: attribute spans from the BIO tags plus the section
// flags. Shared by the per-request and batched extract paths.
func extractiveBrief(out *Output, inst *Instance, v *textproc.Vocab) *Brief {
	b := &Brief{}
	if tags := PredictTags(out); tags != nil {
		for _, sp := range eval.SpansFromBIO(tags) {
			var words []string
			for i := sp.Start; i < sp.End; i++ {
				words = append(words, v.Token(inst.IDs[i]))
			}
			b.Attributes = append(b.Attributes, words)
		}
	}
	b.Sections = PredictSections(out)
	return b
}

// GenerateTopicWith is GenerateTopic running on the caller's workspace: the
// topic half of the serial reference path used by wb.Briefer and the
// benchmark oracle, with a forward of its own.
func GenerateTopicWith(m Model, inst *Instance, beamWidth, maxLen int, s *InferScratch) []int {
	s.Tape.Reset()
	out := m.Forward(s.Tape, inst, Eval)
	if out.Memory == nil || out.Dec == nil {
		return nil
	}
	if beamWidth <= 1 {
		return out.Dec.Greedy(s.Tape, out.Memory, textproc.BosID, textproc.EosID, maxLen)
	}
	return out.Dec.BeamSearchScratch(s.Tape, out.Memory, textproc.BosID, textproc.EosID, beamWidth, maxLen, s.Beam)
}

// DecodeTopicWith is DecodeTopic running on the caller's workspace.
func DecodeTopicWith(m Model, inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch) []string {
	if ids := GenerateTopicWith(m, inst, beamWidth, topicMaxLen, s); ids != nil {
		return v.Tokens(ids)
	}
	return nil
}

// MakeBriefWith is MakeBrief running both stages on one workspace.
func MakeBriefWith(m Model, inst *Instance, v *textproc.Vocab, beamWidth int, s *InferScratch) *Brief {
	b := ExtractBriefWith(m, inst, v, s)
	b.Topic = DecodeTopicWith(m, inst, v, beamWidth, s)
	return b
}
