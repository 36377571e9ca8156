package nn

import (
	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// ForwardBatch runs the Bi-LSTM over a ragged batch of sequences with one
// streaming recurrence per direction, the inference path of the encoder
// (Forward routes gradient-free tapes here). It returns one seq_i×2h node
// per input, each bitwise identical (up to the sign of zero, see
// tensor/kernels.go) to the Step recurrence over that sequence alone:
// matmul rows are computed independently in ascending-k order, and
// tensor.LSTMCellInto is the Step op chain fused into one pass.
//
// Per direction the recurrence hoists x·Wx for every sequence out of the
// time loop, then per timestep computes h·Wh for all running sequences into
// one reused buffer and applies the cell kernel to the state slabs in
// place. Sequences are processed longest first, so the ones still running
// at any step are a row prefix of the slabs: a finished sequence's rows are
// simply no longer touched, and state never moves — only projection rows
// are copied in and hidden rows copied out. Nothing is allocated per
// timestep: the arena ends up holding the projections, the outputs and
// O(n·4h) of working space. Inference-only: no gradient flows into the
// returned nodes.
func (b *BiLSTM) ForwardBatch(t *ag.Tape, xs []*ag.Node) []*ag.Node {
	n := len(xs)
	nodes := make([]*ag.Node, n)
	if n == 0 {
		return nodes
	}
	lens := make([]int, n)
	for i, x := range xs {
		lens[i] = x.Rows()
	}
	order := longestFirst(lens)
	seqs := make([]*ag.Node, n)
	sorted := make([]*tensor.Matrix, n)
	for r, i := range order {
		seqs[r] = xs[i]
		sorted[r] = t.AllocValue(lens[i], b.OutDim())
		nodes[i] = t.Const(sorted[r])
	}
	b.Fwd.stream(t, seqs, sorted, 0, false)
	b.Bwd.stream(t, seqs, sorted, b.Fwd.Hidden, true)
	return nodes
}

// longestFirst returns the batch indices ordered by descending length, ties
// in input order. Batches are a handful of sequences, so an insertion sort
// is enough.
func longestFirst(lens []int) []int {
	order := make([]int, len(lens))
	for i := range order {
		order[i] = i
		for j := i; j > 0 && lens[order[j]] > lens[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// stream advances l over seqs (longest first) and writes each hidden state
// into columns [colOff, colOff+h) of the matching row of outs. reverse
// selects the backward direction: step t reads row len-1-t.
func (l *LSTM) stream(t *ag.Tape, seqs []*ag.Node, outs []*tensor.Matrix, colOff int, reverse bool) {
	n, h := len(seqs), l.Hidden
	wx := t.Use(l.Wx)
	xps := make([]*tensor.Matrix, n)
	for r, x := range seqs {
		xps[r] = t.MatMul(x, wx).Value
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
		tensor.MatMulInto(hhv, hv, l.Wh.Value)
		tensor.LSTMCellInto(hv, cv, xv, hhv, l.B.Value)
		for r := 0; r < a; r++ {
			copy(outs[r].Row(streamPos(step, xps[r].Rows, reverse))[colOff:colOff+h], hv.Row(r))
		}
	}
}

// streamPos is the sequence row a direction reads at a timestep.
func streamPos(step, rows int, reverse bool) int {
	if reverse {
		return rows - 1 - step
	}
	return step
}
