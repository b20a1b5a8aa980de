package core

import "repro/internal/tensor"

// maxFreeResults bounds the context's free list: the float32 matrices
// its caller handed back with Release, waiting for the next operator
// result or Matrix call that fits. HotSpot3D, the heaviest releaser,
// has up to two grids per layer on the list at once (8 layers by
// default).
const maxFreeResults = 32

// Matrix returns a compact rows x cols float32 matrix whose contents
// are unspecified — the ForOverwrite contract of
// tensor.GetForOverwrite: the caller stores every element before it
// reads any. It is the smallest matrix on the context's free list that
// fits (memory the caller handed back with Release), or else a fresh
// one from tensor.GetF32Exact, so a caller that never releases pays
// for exactly what it gets. In timing-only mode it is a shape-only
// descriptor (paper-scale sweeps must not materialize gigabyte
// matrices). Every operator result comes from here; the matrix is the
// caller's, to keep or to Release.
func (c *Context) Matrix(rows, cols int) *tensor.Matrix {
	if !c.Functional() {
		return tensor.ShapeOnly(rows, cols)
	}
	if rows <= 0 || cols <= 0 { // empty, or negative: New panics
		return tensor.GetF32Exact(rows, cols)
	}
	n := rows * cols
	c.freeMu.Lock()
	best := -1
	for i, m := range c.free {
		if k := cap(m.Data); k >= n && (best < 0 || k < cap(c.free[best].Data)) {
			best = i
		}
	}
	if best < 0 {
		c.freeMu.Unlock()
		return tensor.GetF32Exact(rows, cols)
	}
	m := c.free[best]
	last := len(c.free) - 1
	c.free[best], c.free[last] = c.free[last], nil
	c.free = c.free[:last]
	c.freeMu.Unlock()
	m.Rows, m.Cols, m.Stride, m.Data = rows, cols, cols, m.Data[:n]
	return m
}

// Release hands m back to the context, for the next operator result or
// Matrix call that fits. It transfers ownership: the caller must not
// touch m again, nor any view of it or Buffer made from it. Release of
// nil, of a view (stride wider than its columns), of a matrix already
// on the list, or in timing-only mode is a no-op, and a full list keeps
// its largest matrices. Nothing is charged on the virtual clock.
func (c *Context) Release(m *tensor.Matrix) {
	if m == nil || cap(m.Data) == 0 || !m.IsCompact() || !c.Functional() {
		return
	}
	base := &m.Data[:1][0]
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	small := -1
	for i, f := range c.free {
		if &f.Data[:1][0] == base {
			return
		}
		if small < 0 || cap(f.Data) < cap(c.free[small].Data) {
			small = i
		}
	}
	switch {
	case len(c.free) < maxFreeResults:
		c.free = append(c.free, m)
	case cap(m.Data) > cap(c.free[small].Data):
		c.free[small] = m
	}
}
