package tensor

import "testing"

func TestArenaAllocZeroed(t *testing.T) {
	a := NewArena()
	m := a.Alloc(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("fresh alloc not zeroed at %d: %v", i, v)
		}
	}
	// Dirty it, reset, and the next allocation of the same size must be
	// zeroed again even though it reuses the slab.
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	a.Reset()
	m2 := a.Alloc(3, 4)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("post-reset alloc not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaDistinctBuffers(t *testing.T) {
	a := NewArena()
	x := a.Alloc(2, 2)
	y := a.Alloc(2, 2)
	x.Data[0] = 1
	if y.Data[0] != 0 {
		t.Fatal("allocations within one arena pass alias each other")
	}
}

func TestArenaResetReusesMemory(t *testing.T) {
	a := NewArena()
	for i := 0; i < 10; i++ {
		a.Alloc(16, 16)
	}
	before := a.Footprint()
	for pass := 0; pass < 5; pass++ {
		a.Reset()
		for i := 0; i < 10; i++ {
			a.Alloc(16, 16)
		}
	}
	if got := a.Footprint(); got != before {
		t.Fatalf("footprint grew across identical passes: %d -> %d", before, got)
	}
}

func TestArenaOversizeAllocation(t *testing.T) {
	a := NewArena()
	// Larger than one slab: must still work and still be zeroed.
	big := a.AllocFloats(arenaSlabFloats + 100)
	if len(big) != arenaSlabFloats+100 {
		t.Fatalf("oversize alloc wrong length %d", len(big))
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("oversize alloc not zeroed at %d", i)
		}
	}
	// A small alloc after an oversize one must not alias it.
	small := a.AllocFloats(8)
	small[0] = 7
	if big[0] != 0 {
		t.Fatal("small alloc aliases oversize slab")
	}
}

func TestArenaAllocShared(t *testing.T) {
	a := NewArena()
	data := []float64{1, 2, 3, 4, 5, 6}
	m := a.AllocShared(2, 3, data)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	m.Data[0] = 9
	if data[0] != 9 {
		t.Fatal("AllocShared must wrap the caller's buffer, not copy it")
	}
}

// TestArenaSettlesAcrossShapes alternates two fill patterns of different
// shapes — many mid-sized requests that leave each slab's tail unused, then
// a few requests larger than a default slab — the way ragged batches of
// different page lengths hit a serving arena. After the first cycle the
// arena must hold one slab and its footprint must stop growing.
func TestArenaSettlesAcrossShapes(t *testing.T) {
	check := func(t *testing.T, reset func(), alloc func(int), footprint, slabs func() int) {
		var settled int
		for cycle := 0; cycle < 6; cycle++ {
			reset()
			for i := 0; i < 30; i++ {
				alloc(5000 + 37*i)
			}
			reset()
			for _, n := range []int{100000, 20000, 70000, 3} {
				alloc(n)
			}
			if cycle == 0 {
				settled = footprint()
				continue
			}
			if got := footprint(); got != settled {
				t.Fatalf("cycle %d: footprint %d, want the first cycle's high-water %d", cycle, got, settled)
			}
			if n := slabs(); n != 1 {
				t.Fatalf("cycle %d: %d slabs, want 1", cycle, n)
			}
		}
	}
	t.Run("float64", func(t *testing.T) {
		a := NewArena()
		check(t, a.Reset, func(n int) { a.AllocFloats(n) }, a.Footprint, func() int { return len(a.slabs) })
	})
	t.Run("float32", func(t *testing.T) {
		a := NewArena32()
		check(t, a.Reset, func(n int) { a.AllocFloats(n) }, a.Footprint, func() int { return len(a.slabs) })
	})
}

func BenchmarkArenaAllocReset(b *testing.B) {
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		for j := 0; j < 32; j++ {
			a.Alloc(16, 16)
		}
	}
}
