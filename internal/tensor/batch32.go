package tensor

import "fmt"

// Float32 twin of the ragged-batch gather helper in batch.go, used by the
// student tier's batched beam decode. Like its float64 counterpart it only
// moves rows, never mixes them, so slab rows match B separate 1-row calls
// exactly.

// GatherRowsInto32 copies row srcRows[i] of srcs[i] into row i of dst.
func GatherRowsInto32(dst *Matrix32, srcs []*Matrix32, srcRows []int) {
	if len(srcs) != len(srcRows) {
		panic(fmt.Sprintf("tensor: GatherRowsInto32 %d srcs, %d rows", len(srcs), len(srcRows)))
	}
	if dst.Rows != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherRowsInto32 dst has %d rows, want %d", dst.Rows, len(srcs)))
	}
	for i, src := range srcs {
		if src.Cols != dst.Cols {
			panic(fmt.Sprintf("tensor: GatherRowsInto32 src %d has %d cols, dst has %d", i, src.Cols, dst.Cols))
		}
		if r := srcRows[i]; r < 0 || r >= src.Rows {
			panic(fmt.Sprintf("tensor: GatherRowsInto32 row %d out of range for src %d with %d rows", r, i, src.Rows))
		}
	}
	for i, src := range srcs {
		copy(dst.Row(i), src.Row(srcRows[i]))
	}
}
