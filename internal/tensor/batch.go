package tensor

import "fmt"

// Ragged-batch gather helper. The batched beam decode advances several
// beams in lockstep: each step gathers one state row from every live beam
// into a dense slab and runs the ordinary B-row kernels over it. Because
// every matmul kernel in this package computes each output row
// independently (see kernels.go), the slab rows come out bitwise identical
// to B separate 1-row calls — gathering only moves rows, it never mixes
// them.

// GatherRowsInto copies row srcRows[i] of srcs[i] into row i of dst,
// assembling a dense len(srcs)×cols slab from one row of each source. All
// sources must share dst's column count and srcRows[i] must be a valid row
// of srcs[i]; shape violations panic before any row is written.
func GatherRowsInto(dst *Matrix, srcs []*Matrix, srcRows []int) {
	if len(srcs) != len(srcRows) {
		panic(fmt.Sprintf("tensor: GatherRowsInto %d srcs, %d rows", len(srcs), len(srcRows)))
	}
	if dst.Rows != len(srcs) {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst has %d rows, want %d", dst.Rows, len(srcs)))
	}
	for i, src := range srcs {
		if src.Cols != dst.Cols {
			panic(fmt.Sprintf("tensor: GatherRowsInto src %d has %d cols, dst has %d", i, src.Cols, dst.Cols))
		}
		if r := srcRows[i]; r < 0 || r >= src.Rows {
			panic(fmt.Sprintf("tensor: GatherRowsInto row %d out of range for src %d with %d rows", r, i, src.Rows))
		}
	}
	for i, src := range srcs {
		copy(dst.Row(i), src.Row(srcRows[i]))
	}
}
