package wb

import (
	"webbrief/internal/ag"
	"webbrief/internal/nn"
	"webbrief/internal/tensor"
)

// Mode selects forward-pass behaviour: Train enables dropout and decoder
// teacher forcing; Distill keeps teacher forcing but disables dropout (used
// for the frozen teacher and the student's distillation passes, where
// matched output distributions require matched decode paths); Eval decodes
// greedily with no dropout.
type Mode int

// Forward modes.
const (
	Train Mode = iota
	Distill
	Eval
)

// TeacherForced reports whether the mode decodes with gold topic inputs.
func (m Mode) TeacherForced() bool { return m == Train || m == Distill }

// Output carries everything a forward pass produces. Heads a model does not
// implement are nil (e.g. a single-task extractor has no TopicLogits). The
// hidden representations are exposed because the distillation losses of
// §III-A/§III-B match them between teacher and student.
type Output struct {
	TokenH      *ag.Node // hidden token representations (H^T_c / C_E)
	SentH       *ag.Node // hidden sentence representations (C_G)
	TopicStates *ag.Node // decoder hidden topic representations (Q)
	TagLogits   *ag.Node // l×3 BIO logits
	SecLogits   *ag.Node // m×1 informative-section logits
	TopicLogits *ag.Node // teacher-forced decode logits (len(TopicIn)×vocab)
	Memory      *ag.Node // decoder attention memory for free decoding
	Dec         *nn.AttnDecoder
}

// Model is the interface shared by Joint-WB and every baseline, and the
// contract the distillation framework trains against.
type Model interface {
	nn.Layer
	Name() string
	// Forward runs the model on one instance. In Train mode the decoder is
	// teacher-forced with inst.TopicIn; in Eval mode generation-dependent
	// signals use greedy decoding.
	Forward(t *ag.Tape, inst *Instance, mode Mode) *Output
}

// BatchForwarder is implemented by models whose Eval-mode forward can run
// over several instances at once with the recurrent encoders streamed over
// the whole batch (see JointWB.ForwardBatchEval). The serving layer batch-dispatches
// through it when present; outs[i] must hold values identical to
// Forward(t, insts[i], Eval).
type BatchForwarder interface {
	Model
	ForwardBatchEval(t *ag.Tape, insts []*Instance) []*Output
}

// Loss sums the supervised losses for whichever heads out provides: BIO
// cross-entropy for extraction, sequence cross-entropy for topic generation,
// and binary cross-entropy for section prediction — the joint objective
// L = CE(O_e, gt_e) + CE(O_g, gt_g) of §III-C with the section predictor's
// supervision made explicit.
func Loss(t *ag.Tape, out *Output, inst *Instance) *ag.Node {
	var terms []*ag.Node
	if out.TagLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TagLogits, inst.Tags))
	}
	if out.TopicLogits != nil {
		terms = append(terms, t.CrossEntropy(out.TopicLogits, inst.TopicOut))
	}
	if out.SecLogits != nil {
		terms = append(terms, t.BCELoss(out.SecLogits, inst.SentInfo))
	}
	if len(terms) == 0 {
		panic("wb: model produced no supervised heads")
	}
	return t.AddScalars(terms...)
}

// PredictTags returns the argmax BIO tag sequence from an output.
func PredictTags(out *Output) []int {
	if out.TagLogits == nil {
		return nil
	}
	tags := make([]int, out.TagLogits.Rows())
	for i := range tags {
		tags[i] = out.TagLogits.Value.ArgmaxRow(i)
	}
	return tags
}

// PredictSections thresholds the section logits at 0.5 probability.
func PredictSections(out *Output) []int {
	if out.SecLogits == nil {
		return nil
	}
	secs := make([]int, out.SecLogits.Rows())
	for i := range secs {
		if out.SecLogits.Value.At(i, 0) >= 0 { // sigmoid(x) >= 0.5 ⟺ x >= 0
			secs[i] = 1
		}
	}
	return secs
}

// GenerateTopic decodes a topic phrase from a model using beam search
// (width ≤ 1 falls back to greedy). It returns nil if the model has no
// generator head.
func GenerateTopic(m Model, inst *Instance, beamWidth, maxLen int) []int {
	s := GetScratch()
	defer PutScratch(s)
	return GenerateTopicWith(m, inst, beamWidth, maxLen, s)
}

// sentProbsToTokens expands per-sentence probabilities (m×1) to per-token
// rows (l×1) using the instance's sentence index, the Φ injection of
// §III-C that broadcasts the section signal onto token positions.
func sentProbsToTokens(t *ag.Tape, sentProbs *ag.Node, inst *Instance) *ag.Node {
	return t.GatherRows(sentProbs, inst.SentOf)
}

// softmaxOverRows applies a softmax across the ROWS of a column vector
// (l×1), i.e. a distribution over positions. tensor softmax is row-wise
// over columns, so transpose around it.
func softmaxOverRows(t *ag.Tape, col *ag.Node) *ag.Node {
	return t.Transpose(t.SoftmaxRows(t.Transpose(col)))
}

// zeroRow returns a constant 1×dim zero row used to pad Markov-dependency
// neighbours at document boundaries. It draws from the tape arena so the
// inference fast path stays allocation-free.
func zeroRow(t *ag.Tape, dim int) *ag.Node {
	return t.Const(t.AllocValue(1, dim))
}

// rowSum reduces each row of a to a single column (l×1) by multiplying with
// a ones vector.
func rowSum(t *ag.Tape, a *ag.Node) *ag.Node {
	return t.MatMul(a, t.Const(onesCol(t, a.Cols())))
}

// onesCol returns an n×1 all-ones matrix from the tape arena, used to
// broadcast a 1×d row to n rows via matrix product.
func onesCol(t *ag.Tape, n int) *tensor.Matrix {
	ones := t.AllocValue(n, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return ones
}
