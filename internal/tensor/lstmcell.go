package tensor

import "math"

// Fused LSTM cell kernels — the elementwise half of one recurrence step.
// The streaming Bi-LSTM encoders (nn.BiLSTM.ForwardBatch and its float32
// twin) compute x·Wx for the whole sequence up front and h·Wh into one
// reused buffer per step; these kernels then turn both projections into the
// new state in a single pass, with no gate, activation or product matrices.
//
// Bitwise contract: every expression is the one the composed kernels
// evaluate — AddInto then AddRowVectorInto for the gates, SigmoidInto and
// TanhInto for the activations, MulInto and AddInto for the state update —
// in the same order. The two products of c = f·c + i·g are rounded
// explicitly before their sum, because the Go spec lets a compiler fuse
// x*y + z into one multiply-add (arm64 does) and the composed kernels store
// each product before adding. The result is therefore bit-for-bit the
// composed op chain (TestKernelEquivalenceLSTMCell pins this).

// LSTMCellInto advances rows LSTM states one timestep in place. h and c are
// the rows×n hidden and cell states; xp and hh are the rows×4n input (x·Wx)
// and recurrent (h·Wh) projections and b the 1×4n bias, all in the fused
// [input | forget | cell | output] gate layout. Per cell:
//
//	gates = (xp + hh) + b
//	i, f, o = σ(gates)   g = tanh(gates)
//	c = f·c + i·g        h = o·tanh(c)
func LSTMCellInto(h, c, xp, hh, b *Matrix) {
	n := h.Cols
	dstShapeCheck(c, h.Rows, n, "LSTMCellInto")
	dstShapeCheck(xp, h.Rows, 4*n, "LSTMCellInto")
	dstShapeCheck(hh, h.Rows, 4*n, "LSTMCellInto")
	dstShapeCheck(b, 1, 4*n, "LSTMCellInto")
	bi, bf, bg, bo := b.Data[:n], b.Data[n:2*n], b.Data[2*n:3*n], b.Data[3*n:4*n]
	for r := 0; r < h.Rows; r++ {
		x, y := xp.Row(r), hh.Row(r)
		xi, xf, xg, xo := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:4*n]
		yi, yf, yg, yo := y[:n], y[n:2*n], y[2*n:3*n], y[3*n:4*n]
		hr, cr := h.Row(r), c.Row(r)
		for j := range hr {
			i := 1 / (1 + math.Exp(-((xi[j] + yi[j]) + bi[j])))
			f := 1 / (1 + math.Exp(-((xf[j] + yf[j]) + bf[j])))
			g := math.Tanh((xg[j] + yg[j]) + bg[j])
			o := 1 / (1 + math.Exp(-((xo[j] + yo[j]) + bo[j])))
			cj := float64(f*cr[j]) + float64(i*g)
			cr[j] = cj
			hr[j] = o * math.Tanh(cj)
		}
	}
	debugFinite("LSTMCellInto", c)
	debugFinite("LSTMCellInto", h)
}

// LSTMCellInto32 is the float32 twin of LSTMCellInto, matching the
// composed float32 kernels: gate sums in float32, σ and tanh through their
// float64 library forms rounded once (SigmoidInto32, TanhInto32), and each
// state-update product rounded to float32 before the sum.
func LSTMCellInto32(h, c, xp, hh, b *Matrix32) {
	n := h.Cols
	dstShapeCheck32(c, h.Rows, n, "LSTMCellInto32")
	dstShapeCheck32(xp, h.Rows, 4*n, "LSTMCellInto32")
	dstShapeCheck32(hh, h.Rows, 4*n, "LSTMCellInto32")
	dstShapeCheck32(b, 1, 4*n, "LSTMCellInto32")
	bi, bf, bg, bo := b.Data[:n], b.Data[n:2*n], b.Data[2*n:3*n], b.Data[3*n:4*n]
	for r := 0; r < h.Rows; r++ {
		x, y := xp.Row(r), hh.Row(r)
		xi, xf, xg, xo := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:4*n]
		yi, yf, yg, yo := y[:n], y[n:2*n], y[2*n:3*n], y[3*n:4*n]
		hr, cr := h.Row(r), c.Row(r)
		for j := range hr {
			i := float32(1 / (1 + math.Exp(-float64((xi[j]+yi[j])+bi[j]))))
			f := float32(1 / (1 + math.Exp(-float64((xf[j]+yf[j])+bf[j]))))
			g := float32(math.Tanh(float64((xg[j] + yg[j]) + bg[j])))
			o := float32(1 / (1 + math.Exp(-float64((xo[j]+yo[j])+bo[j]))))
			cj := float32(f*cr[j]) + float32(i*g)
			cr[j] = cj
			hr[j] = o * float32(math.Tanh(float64(cj)))
		}
	}
	debugFinite32("LSTMCellInto32", c)
	debugFinite32("LSTMCellInto32", h)
}
