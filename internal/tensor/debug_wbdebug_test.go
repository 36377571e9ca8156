//go:build wbdebug

package tensor

import (
	"math"
	"strings"
	"testing"
)

func mustPanicFinite(t *testing.T, kernel string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected non-finite panic from %s, got none", kernel)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, kernel) || !strings.Contains(msg, "non-finite") {
			t.Fatalf("panic %v does not name kernel %s as non-finite source", r, kernel)
		}
	}()
	f()
}

// TestFiniteGuardTrapsNaN: a NaN flowing through a destination-passing
// kernel must be reported by that kernel, under its name.
func TestFiniteGuardTrapsNaN(t *testing.T) {
	a := Full(2, 2, 1)
	b := Full(2, 2, 2)
	a.Data[3] = math.NaN()
	mustPanicFinite(t, "AddInto", func() { AddInto(New(2, 2), a, b) })
}

// TestFiniteGuardTrapsInf: overflow to +Inf is caught at the producing
// kernel (here scaling by an enormous factor).
func TestFiniteGuardTrapsInf(t *testing.T) {
	a := Full(1, 2, math.MaxFloat64)
	mustPanicFinite(t, "ScaleInto", func() { ScaleInto(New(1, 2), a, 2) })
}

// TestFiniteGuardTrapsNaNInLSTMCell: a NaN projection fed into the fused
// cell kernel — which replaces a whole chain of guarded kernels on the
// encoder path — is reported by that kernel, under its name.
func TestFiniteGuardTrapsNaNInLSTMCell(t *testing.T) {
	xp := Full(2, 8, 0.5)
	xp.Data[5] = math.NaN()
	mustPanicFinite(t, "LSTMCellInto", func() {
		LSTMCellInto(New(2, 2), New(2, 2), xp, New(2, 8), New(1, 8))
	})
	mustPanicFinite(t, "LSTMCellInto32", func() {
		LSTMCellInto32(New32(2, 2), New32(2, 2), ToMatrix32(xp), New32(2, 8), New32(1, 8))
	})
}

// TestFiniteGuardPassesCleanData: ordinary finite data must flow through
// guarded kernels untouched.
func TestFiniteGuardPassesCleanData(t *testing.T) {
	a := Full(2, 3, 0.5)
	b := Full(2, 3, -0.25)
	dst := New(2, 3)
	AddInto(dst, a, b)
	if dst.Data[0] != 0.25 {
		t.Fatalf("AddInto produced %v, want 0.25", dst.Data[0])
	}
}
