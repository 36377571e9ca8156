package tensor

// Arena32 is the float32 twin of Arena: a bump allocator for student-tier
// inference intermediates with identical lifetimes. Alloc hands out zeroed
// matrices carved from large reusable slabs; Reset rewinds the arena so the
// next briefing reuses the same memory. Not safe for concurrent use — each
// serving replica owns its own.
type Arena32 struct {
	slabs [][]float32
	slab  int // index of the slab currently being filled
	off   int // fill offset within slabs[slab]

	mats   [][]Matrix32
	matBlk int
	matOff int
}

// NewArena32 returns an empty arena. Slabs are allocated lazily on first
// use; the slab size (arenaSlabFloats elements = 256 KiB of float32) and
// header-block size are shared with the float64 arena.
func NewArena32() *Arena32 { return &Arena32{} }

// AllocFloats returns a zeroed slice of n floats backed by the arena. The
// slice is full-capacity-clipped so appends never bleed into neighbours.
func (a *Arena32) AllocFloats(n int) []float32 {
	if n == 0 {
		return nil
	}
	for {
		if a.slab == len(a.slabs) {
			size := arenaSlabFloats
			if n > size {
				size = n
			}
			a.slabs = append(a.slabs, make([]float32, size))
		}
		if s := a.slabs[a.slab]; a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			for i := range out {
				out[i] = 0
			}
			return out
		}
		a.slab++
		a.off = 0
	}
}

// Alloc returns a zeroed rows×cols matrix whose header and data both live
// in the arena. It panics on non-positive dimensions, like New32.
func (a *Arena32) Alloc(rows, cols int) *Matrix32 {
	m := a.allocHeader(rows, cols)
	m.Data = a.AllocFloats(rows * cols)
	return m
}

// AllocShared returns a rows×cols matrix header viewing data, without
// copying. It is the arena analogue of FromSlice32.
func (a *Arena32) AllocShared(rows, cols int, data []float32) *Matrix32 {
	if len(data) != rows*cols {
		panic("tensor: Arena32.AllocShared data length does not match shape")
	}
	m := a.allocHeader(rows, cols)
	m.Data = data
	return m
}

func (a *Arena32) allocHeader(rows, cols int) *Matrix32 {
	if rows <= 0 || cols <= 0 {
		panic("tensor: Arena32.Alloc invalid shape")
	}
	if a.matBlk == len(a.mats) {
		a.mats = append(a.mats, make([]Matrix32, arenaMatBlock))
	}
	blk := a.mats[a.matBlk]
	m := &blk[a.matOff]
	m.Rows, m.Cols = rows, cols
	a.matOff++
	if a.matOff == len(blk) {
		a.matBlk++
		a.matOff = 0
	}
	return m
}

// Reset rewinds the arena so all previously allocated matrices may be
// reused. The caller must ensure nothing from before the Reset is still
// referenced: old matrices will alias new ones.
//
// Like Arena.Reset, a fill that spilled past slab 0 merges all slabs into
// one of their summed size, so the arena settles at one slab.
func (a *Arena32) Reset() {
	if a.slab > 0 {
		a.slabs = [][]float32{make([]float32, a.Footprint())}
	}
	a.slab, a.off = 0, 0
	a.matBlk, a.matOff = 0, 0
}

// Footprint reports the total floats held across all slabs.
func (a *Arena32) Footprint() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
