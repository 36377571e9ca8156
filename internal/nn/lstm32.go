package nn

import (
	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// LSTM32 is the float32 serving form of LSTM, with the same fused
// [input | forget | cell | output] gate layout.
type LSTM32 struct {
	Wx     *tensor.Matrix32 // in×4h
	Wh     *tensor.Matrix32 // h×4h
	B      *tensor.Matrix32 // 1×4h
	Hidden int
}

// NewLSTM32From converts a trained LSTM to float32.
func NewLSTM32From(l *LSTM) *LSTM32 {
	return &LSTM32{
		Wx:     tensor.ToMatrix32(l.Wx.Value),
		Wh:     tensor.ToMatrix32(l.Wh.Value),
		B:      tensor.ToMatrix32(l.B.Value),
		Hidden: l.Hidden,
	}
}

// State32 is an LSTM hidden/cell pair, each rows×hidden (1 row per
// sequence; batched steps carry several).
type State32 struct {
	H, C *tensor.Matrix32
}

// ZeroState returns the all-zero initial state on tape t.
func (l *LSTM32) ZeroState(t *ag.Tape32) State32 {
	return State32{H: t.AllocValue(1, l.Hidden), C: t.AllocValue(1, l.Hidden)}
}

// Step advances the LSTM one timestep (or one fused batch of timesteps —
// every row advances independently) and returns the new state. It is the
// composed op chain the streaming BiLSTM32.ForwardBatch fuses into
// tensor.LSTMCellInto32, and stays the decoder's cell step.
func (l *LSTM32) Step(t *ag.Tape32, x *tensor.Matrix32, s State32) State32 {
	gates := t.AddRowVector(t.Add(t.MatMul(x, l.Wx), t.MatMul(s.H, l.Wh)), l.B)
	h := l.Hidden
	i := t.Sigmoid(t.SliceCols(gates, 0, h))
	f := t.Sigmoid(t.SliceCols(gates, h, 2*h))
	g := t.Tanh(t.SliceCols(gates, 2*h, 3*h))
	o := t.Sigmoid(t.SliceCols(gates, 3*h, 4*h))
	c := t.Add(t.Mul(f, s.C), t.Mul(i, g))
	return State32{H: t.Mul(o, t.Tanh(c)), C: c}
}

// BiLSTM32 is the float32 serving form of BiLSTM.
type BiLSTM32 struct {
	Fwd, Bwd *LSTM32
}

// NewBiLSTM32From converts a trained BiLSTM to float32.
func NewBiLSTM32From(b *BiLSTM) *BiLSTM32 {
	return &BiLSTM32{Fwd: NewLSTM32From(b.Fwd), Bwd: NewLSTM32From(b.Bwd)}
}

// OutDim returns the concatenated hidden width.
func (b *BiLSTM32) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// Forward returns the seq×2h matrix of concatenated forward/backward
// states: ForwardBatch over a batch of one.
func (b *BiLSTM32) Forward(t *ag.Tape32, x *tensor.Matrix32) *tensor.Matrix32 {
	return b.ForwardBatch(t, []*tensor.Matrix32{x})[0]
}

// ForwardBatch runs the Bi-LSTM over a ragged batch of sequences with one
// streaming recurrence per direction, the float32 twin of
// BiLSTM.ForwardBatch. Each returned seq_i×2h matrix matches the LSTM32.Step
// recurrence over that sequence alone (matmul rows are independent and
// tensor.LSTMCellInto32 is the Step chain fused), and nothing is allocated
// per timestep.
func (b *BiLSTM32) ForwardBatch(t *ag.Tape32, xs []*tensor.Matrix32) []*tensor.Matrix32 {
	n := len(xs)
	outs := make([]*tensor.Matrix32, n)
	if n == 0 {
		return outs
	}
	lens := make([]int, n)
	for i, x := range xs {
		lens[i] = x.Rows
	}
	order := longestFirst(lens)
	seqs := make([]*tensor.Matrix32, n)
	sorted := make([]*tensor.Matrix32, n)
	for r, i := range order {
		seqs[r] = xs[i]
		outs[i] = t.AllocValue(lens[i], b.OutDim())
		sorted[r] = outs[i]
	}
	b.Fwd.stream(t, seqs, sorted, 0, false)
	b.Bwd.stream(t, seqs, sorted, b.Fwd.Hidden, true)
	return outs
}

// stream is the float32 twin of LSTM.stream: l over seqs (longest first),
// hidden states into columns [colOff, colOff+h) of outs.
func (l *LSTM32) stream(t *ag.Tape32, seqs, outs []*tensor.Matrix32, colOff int, reverse bool) {
	n, h := len(seqs), l.Hidden
	xps := make([]*tensor.Matrix32, n)
	for r, x := range seqs {
		xps[r] = t.MatMul(x, l.Wx)
	}
	H, C := t.AllocValue(n, h), t.AllocValue(n, h)
	XP, HH := t.AllocValue(n, 4*h), t.AllocValue(n, 4*h)
	hv, cv, xv, hhv := H, C, XP, HH // views of the running row prefix
	a := n
	for step := 0; step < xps[0].Rows; step++ {
		if xps[a-1].Rows <= step {
			for xps[a-1].Rows <= step {
				a--
			}
			hv = t.ViewValue(a, h, H.Data[:a*h])
			cv = t.ViewValue(a, h, C.Data[:a*h])
			xv = t.ViewValue(a, 4*h, XP.Data[:a*4*h])
			hhv = t.ViewValue(a, 4*h, HH.Data[:a*4*h])
		}
		for r := 0; r < a; r++ {
			copy(xv.Row(r), xps[r].Row(streamPos(step, xps[r].Rows, reverse)))
		}
		clear(hhv.Data)
		tensor.MatMulInto32(hhv, hv, l.Wh)
		tensor.LSTMCellInto32(hv, cv, xv, hhv, l.B)
		for r := 0; r < a; r++ {
			copy(outs[r].Row(streamPos(step, xps[r].Rows, reverse))[colOff:colOff+h], hv.Row(r))
		}
	}
}
