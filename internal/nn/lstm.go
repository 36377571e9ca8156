package nn

import (
	"math/rand"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// LSTM is a single-direction LSTM with fused gate weights, the recurrent
// encoder used by the extractor E and the generator G in Joint-WB and by
// every Bi-LSTM baseline.
//
// Gate layout in the fused matrices is [input | forget | cell | output].
type LSTM struct {
	Wx     *ag.Param // in×4h
	Wh     *ag.Param // h×4h
	B      *ag.Param // 1×4h
	Hidden int
}

// NewLSTM returns an LSTM with Glorot-initialised weights and forget-gate
// bias 1 (the standard trick to ease gradient flow early in training).
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	bx := xavier(in, 4*hidden)
	bh := xavier(hidden, 4*hidden)
	l := &LSTM{
		Wx:     ag.NewParam(name+".Wx", tensor.Uniform(in, 4*hidden, -bx, bx, rng)),
		Wh:     ag.NewParam(name+".Wh", tensor.Uniform(hidden, 4*hidden, -bh, bh, rng)),
		B:      ag.NewParam(name+".B", tensor.New(1, 4*hidden)),
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// Params implements Layer.
func (l *LSTM) Params() []*ag.Param { return []*ag.Param{l.Wx, l.Wh, l.B} }

// State is an LSTM hidden/cell pair, each 1×hidden.
type State struct {
	H, C *ag.Node
}

// ZeroState returns the all-zero initial state on tape t. The buffers come
// from the tape's arena, so they obey tape lifetime and cost no heap
// allocation on arena tapes.
func (l *LSTM) ZeroState(t *ag.Tape) State {
	return State{
		H: t.Const(t.AllocValue(1, l.Hidden)),
		C: t.Const(t.AllocValue(1, l.Hidden)),
	}
}

// Step advances the LSTM one timestep with input x (1×in) and returns the
// new state.
func (l *LSTM) Step(t *ag.Tape, x *ag.Node, s State) State {
	gates := t.AddRowVector(
		t.Add(t.MatMul(x, t.Use(l.Wx)), t.MatMul(s.H, t.Use(l.Wh))),
		t.Use(l.B),
	)
	h := l.Hidden
	i := t.Sigmoid(t.SliceCols(gates, 0, h))
	f := t.Sigmoid(t.SliceCols(gates, h, 2*h))
	g := t.Tanh(t.SliceCols(gates, 2*h, 3*h))
	o := t.Sigmoid(t.SliceCols(gates, 3*h, 4*h))
	c := t.Add(t.Mul(f, s.C), t.Mul(i, g))
	return State{H: t.Mul(o, t.Tanh(c)), C: c}
}

// Forward runs the LSTM over a seq×in input and returns the seq×hidden
// matrix of hidden states.
func (l *LSTM) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	seq := x.Rows()
	s := l.ZeroState(t)
	hs := make([]*ag.Node, seq)
	for i := 0; i < seq; i++ {
		s = l.Step(t, t.SliceRows(x, i, i+1), s)
		hs[i] = s.H
	}
	return t.ConcatRows(hs...)
}

// BiLSTM runs two LSTMs over the sequence in opposite directions and
// concatenates their hidden states, the encoder of §III-C.
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM returns a Bi-LSTM whose output width is 2*hidden.
func NewBiLSTM(name string, in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(name+".fwd", in, hidden, rng),
		Bwd: NewLSTM(name+".bwd", in, hidden, rng),
	}
}

// Params implements Layer.
func (b *BiLSTM) Params() []*ag.Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// OutDim returns the concatenated hidden width.
func (b *BiLSTM) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// Forward returns the seq×2h matrix of concatenated forward/backward
// states. Gradient tapes run the Step recurrence, which records every op
// for backprop; gradient-free tapes take the streaming ForwardBatch path,
// whose values are identical (see ForwardBatch).
func (b *BiLSTM) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	if t.NoGrad() {
		return b.ForwardBatch(t, []*ag.Node{x})[0]
	}
	seq := x.Rows()
	fwd := make([]*ag.Node, seq)
	s := b.Fwd.ZeroState(t)
	for i := 0; i < seq; i++ {
		s = b.Fwd.Step(t, t.SliceRows(x, i, i+1), s)
		fwd[i] = s.H
	}
	bwd := make([]*ag.Node, seq)
	s = b.Bwd.ZeroState(t)
	for i := seq - 1; i >= 0; i-- {
		s = b.Bwd.Step(t, t.SliceRows(x, i, i+1), s)
		bwd[i] = s.H
	}
	rows := make([]*ag.Node, seq)
	for i := 0; i < seq; i++ {
		rows[i] = t.ConcatCols2(fwd[i], bwd[i])
	}
	return t.ConcatRows(rows...)
}
