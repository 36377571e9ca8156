package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"webbrief/internal/ag"
	"webbrief/internal/tensor"
)

// ragged test lengths: 1-token rows, a shared max, and odd middles.
var raggedLens = [][]int{
	{1},
	{3, 3},
	{1, 7},
	{7, 1, 4},
	{5, 2, 5, 1},
	{1, 1, 1, 1, 1},
	{6, 3, 1, 7, 2, 5},
	{4, 4, 4, 4, 4, 4, 4},
	{7, 6, 5, 4, 3, 2, 1, 7},
}

// longLens adds one long ragged batch to raggedLens: 1500+ steps exercise
// the streaming recurrence at page length, where any per-step drift would
// compound.
var longLens = []int{1537, 3, 812, 1537, 1}

// newBiasedBiLSTM returns a Bi-LSTM whose gate biases are random rather
// than NewLSTM's zeros-and-ones, so the equivalence tests see every gate's
// bias term.
func newBiasedBiLSTM(in, hidden int, rng *rand.Rand) *BiLSTM {
	bi := NewBiLSTM("b", in, hidden, rng)
	for _, l := range []*LSTM{bi.Fwd, bi.Bwd} {
		l.B.Value = tensor.Uniform(1, 4*hidden, -1, 1, rng)
	}
	return bi
}

// TestBiLSTMForwardBatchMatchesSerial pins ForwardBatch to the Step
// recurrence on a gradient tape, per sequence, across ragged batch shapes:
// every output value must compare equal (== admits the ±0 divergence the
// blocked kernels document, and nothing else). The reference is the
// gradient tape because inference Forward itself runs ForwardBatch.
func TestBiLSTMForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const in, hidden = 9, 6
	bi := newBiasedBiLSTM(in, hidden, rng)
	for _, lens := range append(raggedLens, longLens) {
		inputs := make([]*tensor.Matrix, len(lens))
		want := make([]*tensor.Matrix, len(lens))
		for i, l := range lens {
			inputs[i] = tensor.Uniform(l, in, -1, 1, rng)
			tp := ag.NewTape()
			want[i] = bi.Forward(tp, tp.Const(inputs[i])).Value
		}
		// One batched pass over all of them on a shared pack-routed infer
		// tape — the serving configuration.
		tp := ag.NewInferTape()
		tp.SetPack(&tensor.PackBuf{})
		xs := make([]*ag.Node, len(lens))
		for i := range inputs {
			xs[i] = tp.Const(inputs[i])
		}
		got := bi.ForwardBatch(tp, xs)
		for i := range got {
			if got[i].Value.Rows != want[i].Rows || got[i].Value.Cols != want[i].Cols {
				t.Fatalf("lens %v seq %d: batched shape %dx%d, want %dx%d",
					lens, i, got[i].Value.Rows, got[i].Value.Cols, want[i].Rows, want[i].Cols)
			}
			for k, v := range got[i].Value.Data {
				if v != want[i].Data[k] {
					t.Fatalf("lens %v seq %d: value %d diverges: batched %v, Step %v",
						lens, i, k, v, want[i].Data[k])
				}
			}
		}
	}
}

// stepForward32 is the independent float32 reference: the LSTM32.Step
// recurrence over one sequence, forward then backward, concatenated.
func stepForward32(tp *ag.Tape32, b *BiLSTM32, x *tensor.Matrix32) *tensor.Matrix32 {
	seq, h := x.Rows, b.Fwd.Hidden
	out := tensor.New32(seq, b.OutDim())
	s := b.Fwd.ZeroState(tp)
	for i := 0; i < seq; i++ {
		s = b.Fwd.Step(tp, tp.SliceRows(x, i, i+1), s)
		copy(out.Row(i)[:h], s.H.Data)
	}
	s = b.Bwd.ZeroState(tp)
	for i := seq - 1; i >= 0; i-- {
		s = b.Bwd.Step(tp, tp.SliceRows(x, i, i+1), s)
		copy(out.Row(i)[h:], s.H.Data)
	}
	return out
}

// TestBiLSTM32ForwardBatchMatchesStep is the float32 twin of
// TestBiLSTMForwardBatchMatchesSerial, against an LSTM32.Step loop.
func TestBiLSTM32ForwardBatchMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const in, hidden = 9, 6
	bi := NewBiLSTM32From(newBiasedBiLSTM(in, hidden, rng))
	for _, lens := range append(raggedLens, longLens) {
		inputs := make([]*tensor.Matrix32, len(lens))
		want := make([]*tensor.Matrix32, len(lens))
		for i, l := range lens {
			inputs[i] = tensor.ToMatrix32(tensor.Uniform(l, in, -1, 1, rng))
			want[i] = stepForward32(ag.NewInferTape32(), bi, inputs[i])
		}
		tp := ag.NewInferTape32()
		tp.SetPack(&tensor.PackBuf32{})
		got := bi.ForwardBatch(tp, inputs)
		for i := range got {
			if got[i].Rows != want[i].Rows || got[i].Cols != want[i].Cols {
				t.Fatalf("lens %v seq %d: batched shape %dx%d, want %dx%d",
					lens, i, got[i].Rows, got[i].Cols, want[i].Rows, want[i].Cols)
			}
			for k, v := range got[i].Data {
				if v != want[i].Data[k] {
					t.Fatalf("lens %v seq %d: value %d diverges: batched %v, Step %v",
						lens, i, k, v, want[i].Data[k])
				}
			}
		}
	}
}

// TestBiLSTMForwardBatchFootprint is the memory gate of the streaming
// recurrence: after ForwardBatch over a long ragged batch, a fresh arena
// holds the hoisted input projections of both directions, the outputs and
// O(n·4h) of working space — nothing per timestep. The slack covers the
// slab tails that requests too large for them skip; it is half of what one
// extra 4h-wide buffer per running row and timestep would add.
func TestBiLSTMForwardBatchFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const in, hidden = 9, 16
	lens := []int{1600, 1000, 400, 3}
	total := 0
	for _, l := range lens {
		total += l
	}
	n := len(lens)
	projections := 2 * total * 4 * hidden   // x·Wx, both directions
	outputs := total * 2 * hidden           // seq_i×2h each
	work := 2 * (2*n*hidden + 2*n*4*hidden) // H, C, XP, HH per direction
	slack := 3 << 16                        // three default arena slabs
	bound := projections + outputs + work + slack
	bi := NewBiLSTM("b", in, hidden, rng)
	inputs := make([]*tensor.Matrix, n)
	for i, l := range lens {
		inputs[i] = tensor.Uniform(l, in, -1, 1, rng)
	}

	t.Run("float64", func(t *testing.T) {
		tp := ag.NewInferTape()
		xs := make([]*ag.Node, n)
		for i, x := range inputs {
			xs[i] = tp.Const(x)
		}
		bi.ForwardBatch(tp, xs)
		if got := tp.Footprint(); got > bound {
			t.Fatalf("arena holds %d floats after ForwardBatch, want <= %d", got, bound)
		}
	})
	t.Run("float32", func(t *testing.T) {
		bi32 := NewBiLSTM32From(bi)
		xs := make([]*tensor.Matrix32, n)
		for i, x := range inputs {
			xs[i] = tensor.ToMatrix32(x)
		}
		tp := ag.NewInferTape32()
		bi32.ForwardBatch(tp, xs)
		if got := tp.Footprint(); got > bound {
			t.Fatalf("arena holds %d floats after ForwardBatch, want <= %d", got, bound)
		}
	})
}

// TestBeamSearchBatchMatchesScratch pins BeamSearchBatch to per-instance
// BeamSearchScratch: identical token sequences for every instance across
// batch sizes, widths and ragged memory lengths.
func TestBeamSearchBatchMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const vocab, embDim, hidden, memDim = 17, 5, 6, 6
	const bos, eos, maxLen = 1, 2, 5
	d := NewAttnDecoder("d", vocab, embDim, hidden, memDim, rng)
	for _, width := range []int{2, 3, 4} {
		for _, lens := range raggedLens {
			mems := make([]*tensor.Matrix, len(lens))
			want := make([][]int, len(lens))
			for i, l := range lens {
				mems[i] = tensor.Uniform(l, memDim, -1, 1, rng)
				tp := ag.NewInferTape()
				tp.SetPack(&tensor.PackBuf{})
				want[i] = d.BeamSearchScratch(tp, tp.Const(mems[i]), bos, eos, width, maxLen,
					NewBeamScratch(vocab, width, maxLen))
			}
			tp := ag.NewInferTape()
			tp.SetPack(&tensor.PackBuf{})
			nodes := make([]*ag.Node, len(lens))
			scratches := make([]*BeamScratch, len(lens))
			for i := range mems {
				nodes[i] = tp.Const(mems[i])
				scratches[i] = NewBeamScratch(vocab, width, maxLen)
			}
			got := d.BeamSearchBatch(tp, nodes, bos, eos, width, maxLen, scratches)
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("width %d lens %v inst %d: batched %v, serial %v",
						width, lens, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBeamSearchBatchNilScratches checks the convenience paths: a nil
// scratch slice and nil entries both get throwaway scratches, and reused
// scratches keep producing identical results (pool ping-pong hygiene).
func TestBeamSearchBatchNilScratches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const vocab, embDim, hidden, memDim = 11, 4, 5, 5
	d := NewAttnDecoder("d", vocab, embDim, hidden, memDim, rng)
	mems := []*tensor.Matrix{
		tensor.Uniform(3, memDim, -1, 1, rng),
		tensor.Uniform(1, memDim, -1, 1, rng),
	}
	tp := ag.NewInferTape()
	tp.SetPack(&tensor.PackBuf{})
	nodes := []*ag.Node{tp.Const(mems[0]), tp.Const(mems[1])}
	first := d.BeamSearchBatch(tp, nodes, 1, 2, 3, 4, nil)
	scratches := []*BeamScratch{NewBeamScratch(vocab, 3, 4), nil}
	for round := 0; round < 3; round++ {
		tp.Reset()
		nodes = []*ag.Node{tp.Const(mems[0]), tp.Const(mems[1])}
		again := d.BeamSearchBatch(tp, nodes, 1, 2, 3, 4, scratches)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round %d: reused scratches diverged: %v vs %v", round, again, first)
		}
	}
}
