package sched

// sectionTree holds the fleet's schedule rows as the leaves of a
// pairwise summation tree, so the section totals P_c are its root. The
// rows are windows of the one contiguous backing, in slot order (sorted
// vehicle ID), padded with zero rows to a power of two; node j sums its
// children 2j and 2j+1 elementwise.
//
// The root is a pure function of the current rows — no running
// add/subtract, so no drift and no dependence on the order the rows
// were written in — and every quote derives others = totals − own
// from it. An install recomputes only the ⌈log₂N⌉ ancestors of the row it
// wrote, O(C log N) where re-summing every row was O(N·C); a bulk
// writer (an outage's re-projection, a checkpoint restore, a takeover's
// projection, a membership change) rebuilds the tree once in O(N·C).
// The fold's rounding error on section c is at most ⌈log₂N⌉·u·Σ_n|p_n,c|
// (u = 2^-53), tighter than a left-to-right fold's (N−1)·u·Σ_n|p_n,c|.
type sectionTree struct {
	c     int // sections per row
	width int // leaves: a power of two, at least 2
	// nodes holds 2·width rows: node j at [j·c, (j+1)·c), the root at
	// j = 1, leaf i at j = width + i (node 0 is unused).
	nodes []float64
}

// reset sizes the tree for n rows of c sections on a fresh zero backing.
// A width of at least two keeps the root apart from every leaf.
func (t *sectionTree) reset(n, c int) {
	w := 2
	for w < n {
		w *= 2
	}
	t.c, t.width = c, w
	t.nodes = make([]float64, 2*w*c)
}

func (t *sectionTree) node(j int) []float64 {
	return t.nodes[j*t.c : (j+1)*t.c : (j+1)*t.c]
}

// leaf returns row i's window of the backing.
func (t *sectionTree) leaf(i int) []float64 { return t.node(t.width + i) }

// root returns the section totals; the slice is the tree's own node.
func (t *sectionTree) root() []float64 { return t.node(1) }

// update recomputes the ancestors of leaf i after its row changed.
func (t *sectionTree) update(i int) {
	for j := (t.width + i) / 2; j >= 1; j /= 2 {
		t.sum(j)
	}
}

// rebuild recomputes every internal node, bottom up.
func (t *sectionTree) rebuild() {
	for j := t.width - 1; j >= 1; j-- {
		t.sum(j)
	}
}

func (t *sectionTree) sum(j int) {
	dst, l, r := t.node(j), t.node(2*j), t.node(2*j+1)
	for s := range dst {
		dst[s] = l[s] + r[s]
	}
}
