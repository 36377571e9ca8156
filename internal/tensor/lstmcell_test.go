package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// lstmCellShapes covers one row (the per-request step), ragged batch
// widths, a hidden size of 1 and the serving model's hidden size.
var lstmCellShapes = []struct{ rows, hidden int }{
	{1, 1}, {1, 24}, {3, 5}, {7, 24}, {16, 9},
}

// lstmCellInputs draws the kernel's operands. One value in seven is scaled
// up so gates saturate σ and tanh, and one in seven is exactly zero so
// signed-zero handling is covered too.
func lstmCellInputs(rows, hidden int, rng *rand.Rand) (h, c, xp, hh, b *Matrix) {
	draw := func(r, cols int) *Matrix {
		m := New(r, cols)
		for i := range m.Data {
			switch i % 7 {
			case 3:
				m.Data[i] = 30 * rng.NormFloat64()
			case 5:
				// left at zero
			default:
				m.Data[i] = rng.NormFloat64()
			}
		}
		return m
	}
	return draw(rows, hidden), draw(rows, hidden), draw(rows, 4*hidden), draw(rows, 4*hidden), draw(1, 4*hidden)
}

// colsOf copies columns [lo, hi) of m into a new matrix.
func colsOf(m *Matrix, lo, hi int) *Matrix {
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

func colsOf32(m *Matrix32, lo, hi int) *Matrix32 {
	out := New32(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// TestKernelEquivalenceLSTMCell pins LSTMCellInto to the composed kernels
// nn.LSTM.Step runs — AddInto, AddRowVectorInto, SigmoidInto, TanhInto,
// MulInto — bit for bit, signed zeros included.
func TestKernelEquivalenceLSTMCell(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range lstmCellShapes {
		h, c, xp, hh, b := lstmCellInputs(sh.rows, sh.hidden, rng)
		n := sh.hidden

		sum := New(sh.rows, 4*n)
		AddInto(sum, xp, hh)
		gates := New(sh.rows, 4*n)
		AddRowVectorInto(gates, sum, b)
		act := func(lo int, f func(dst, m *Matrix)) *Matrix {
			out := New(sh.rows, n)
			f(out, colsOf(gates, lo, lo+n))
			return out
		}
		i, f := act(0, SigmoidInto), act(n, SigmoidInto)
		g, o := act(2*n, TanhInto), act(3*n, SigmoidInto)
		fc, ig := New(sh.rows, n), New(sh.rows, n)
		MulInto(fc, f, c)
		MulInto(ig, i, g)
		wantC := New(sh.rows, n)
		AddInto(wantC, fc, ig)
		tc := New(sh.rows, n)
		TanhInto(tc, wantC)
		wantH := New(sh.rows, n)
		MulInto(wantH, o, tc)

		LSTMCellInto(h, c, xp, hh, b)
		for k := range wantH.Data {
			if math.Float64bits(c.Data[k]) != math.Float64bits(wantC.Data[k]) ||
				math.Float64bits(h.Data[k]) != math.Float64bits(wantH.Data[k]) {
				t.Fatalf("%dx%d cell %d: fused (h %v, c %v), composed (h %v, c %v)",
					sh.rows, n, k, h.Data[k], c.Data[k], wantH.Data[k], wantC.Data[k])
			}
		}
	}
}

// TestKernelEquivalenceLSTMCell32 is the float32 twin, against the
// composed float32 kernels nn.LSTM32.Step runs.
func TestKernelEquivalenceLSTMCell32(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range lstmCellShapes {
		h64, c64, xp64, hh64, b64 := lstmCellInputs(sh.rows, sh.hidden, rng)
		h, c, xp, hh, b := ToMatrix32(h64), ToMatrix32(c64), ToMatrix32(xp64), ToMatrix32(hh64), ToMatrix32(b64)
		n := sh.hidden

		sum := New32(sh.rows, 4*n)
		AddInto32(sum, xp, hh)
		gates := New32(sh.rows, 4*n)
		AddRowVectorInto32(gates, sum, b)
		act := func(lo int, f func(dst, m *Matrix32)) *Matrix32 {
			out := New32(sh.rows, n)
			f(out, colsOf32(gates, lo, lo+n))
			return out
		}
		i, f := act(0, SigmoidInto32), act(n, SigmoidInto32)
		g, o := act(2*n, TanhInto32), act(3*n, SigmoidInto32)
		fc, ig := New32(sh.rows, n), New32(sh.rows, n)
		MulInto32(fc, f, c)
		MulInto32(ig, i, g)
		wantC := New32(sh.rows, n)
		AddInto32(wantC, fc, ig)
		tc := New32(sh.rows, n)
		TanhInto32(tc, wantC)
		wantH := New32(sh.rows, n)
		MulInto32(wantH, o, tc)

		LSTMCellInto32(h, c, xp, hh, b)
		for k := range wantH.Data {
			if math.Float32bits(c.Data[k]) != math.Float32bits(wantC.Data[k]) ||
				math.Float32bits(h.Data[k]) != math.Float32bits(wantH.Data[k]) {
				t.Fatalf("%dx%d cell %d: fused (h %v, c %v), composed (h %v, c %v)",
					sh.rows, n, k, h.Data[k], c.Data[k], wantH.Data[k], wantC.Data[k])
			}
		}
	}
}

// TestLSTMCellShapePanics: mismatched operands are rejected before any
// state is written.
func TestLSTMCellShapePanics(t *testing.T) {
	cases := []func(){
		func() { LSTMCellInto(New(2, 3), New(2, 4), New(2, 12), New(2, 12), New(1, 12)) },
		func() { LSTMCellInto(New(2, 3), New(2, 3), New(2, 11), New(2, 12), New(1, 12)) },
		func() { LSTMCellInto(New(2, 3), New(2, 3), New(2, 12), New(1, 12), New(1, 12)) },
		func() { LSTMCellInto(New(2, 3), New(2, 3), New(2, 12), New(2, 12), New(2, 12)) },
		func() { LSTMCellInto32(New32(2, 3), New32(2, 3), New32(2, 12), New32(2, 12), New32(1, 9)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}
