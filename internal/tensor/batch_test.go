package tensor

import "testing"

func TestGatherRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 3, []float64{7, 8, 9, 10, 11, 12, 13, 14, 15})
	dst := New(2, 3)
	GatherRowsInto(dst, []*Matrix{a, b}, []int{1, 2})
	exactEqual(t, "GatherRowsInto", dst, FromSlice(2, 3, []float64{4, 5, 6, 13, 14, 15}))
}

func TestGatherRowsShapePanics(t *testing.T) {
	cases := []func(){
		func() { GatherRowsInto(New(1, 3), []*Matrix{New(2, 3), New(2, 3)}, []int{0, 1}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3), New(2, 4)}, []int{0, 1}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3), New(2, 3)}, []int{0, 2}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3)}, []int{0, 1}) },
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
