package vision

import (
	"math"

	"github.com/fatgather/fatgather/internal/geom"
)

// GridThreshold is the configuration size at or above which the batch
// visibility queries (View, FullyVisible, VisibilityCount, ...) build a
// uniform-grid spatial index instead of scanning every robot as a potential
// blocker for every candidate sight line. Below it the flat scan is cheaper
// than building the index.
//
// Re-measured after the scratch-buffer refactor (BenchmarkFullyVisibleGrid /
// BenchmarkFullyVisibleFlat plus a probe at n=4..12): the grid wins 1.3x at
// n=16, 1.26x at 32, 1.44x at 64 and 1.9x at 128, while the flat scan stays
// ~5% ahead at n<=12 — the crossover sits almost exactly at 16, so the
// threshold stands.
const GridThreshold = 16

// maxGridDim caps the grid resolution per axis; sparse configurations get
// proportionally larger cells instead of a huge, mostly-empty grid.
const maxGridDim = 128

// Index is a uniform-grid spatial index over a fixed set of disc centers,
// answering the same visibility queries as Model but fetching blocker
// candidates only from the grid cells a candidate sight line crosses,
// instead of scanning all n discs per segment.
//
// The index is purely an accelerator: every query returns exactly the same
// answer as the flat Model scan, because the grid walk yields a conservative
// superset of the discs within blocking distance of a segment and the final
// distance predicate is unchanged.
//
// Storage is a dense cells array in head/next (linked bucket) layout so that
// queries touch no maps and allocate nothing. Queries only read the index,
// generating candidate sight lines lazily on the stack (see sightLines).
type Index struct {
	m       *Model
	centers []geom.Vec
	r       float64
	cell    float64
	minX    float64
	minY    float64
	cols    int
	rows    int
	head    []int32 // first disc index per cell, -1 when empty
	next    []int32 // next disc in the same cell, -1 at the end
}

// NewIndex builds the spatial index for a configuration of disc centers. The
// grid cell is at least one disc diameter, growing for sparse configurations
// so the grid stays O(n) cells (at most ~4*sqrt(n) per axis, capped at
// maxGridDim) — the index is rebuilt per configuration, so its construction
// cost must stay proportional to the discs, not the covered area.
func (m *Model) NewIndex(centers []geom.Vec) *Index {
	r := m.opts.radius()
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, c := range centers {
		minX = math.Min(minX, c.X)
		minY = math.Min(minY, c.Y)
		maxX = math.Max(maxX, c.X)
		maxY = math.Max(maxY, c.Y)
	}
	if len(centers) == 0 {
		minX, minY, maxX, maxY = 0, 0, 0, 0
	}
	span := math.Max(maxX-minX, maxY-minY)
	dim := 4*int(math.Sqrt(float64(len(centers)))) + 1
	if dim > maxGridDim {
		dim = maxGridDim
	}
	cell := math.Max(2*r, span/float64(dim))
	cols := int((maxX-minX)/cell) + 1
	rows := int((maxY-minY)/cell) + 1
	// Degenerate-geometry guard: coincident, single-robot or empty inputs
	// drive span to 0, and non-finite coordinates poison it entirely — either
	// can leave cell at 0/NaN and turn the cell-coordinate conversions in
	// colOf/rowOf into garbage (int(NaN) is implementation-defined). Fall
	// back to a single all-covering cell: every disc lands in bucket (0,0),
	// queries degrade to the flat scan, and answers stay exactly correct.
	// Finite inputs can't otherwise explode the grid (cell >= span/dim bounds
	// cols and rows by dim+1), so the guard also caps the allocation.
	if !(cell > 0) || math.IsInf(cell, 0) ||
		cols < 1 || rows < 1 || cols > dim+1 || rows > dim+1 ||
		!isFinite(minX) || !isFinite(minY) {
		minX, minY = 0, 0
		cell = 1
		cols, rows = 1, 1
	}
	ix := &Index{
		m:       m,
		centers: centers,
		r:       r,
		cell:    cell,
		minX:    minX,
		minY:    minY,
		cols:    cols,
		rows:    rows,
	}
	ix.head = make([]int32, ix.cols*ix.rows)
	for i := range ix.head {
		ix.head[i] = -1
	}
	ix.next = make([]int32, len(centers))
	for i, c := range centers {
		cx := ix.colOf(c.X)
		cy := ix.rowOf(c.Y)
		idx := cy*ix.cols + cx
		ix.next[i] = ix.head[idx]
		ix.head[idx] = int32(i)
	}
	return ix
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// colOf and rowOf clamp to the grid, which is safe for queries because every
// disc lies inside the grid's extent. On the degenerate 1x1 fallback grid the
// clamp maps every input — even non-finite ones — to cell 0.
func (ix *Index) colOf(x float64) int {
	c := int((x - ix.minX) / ix.cell)
	if c < 0 {
		return 0
	}
	if c >= ix.cols {
		return ix.cols - 1
	}
	return c
}

func (ix *Index) rowOf(y float64) int {
	r := int((y - ix.minY) / ix.cell)
	if r < 0 {
		return 0
	}
	if r >= ix.rows {
		return ix.rows - 1
	}
	return r
}

// Visible reports whether disc i can see disc j, identically to
// Model.Visible on the same centers.
func (ix *Index) Visible(i, j int) bool {
	if i == j {
		return true
	}
	if len(ix.centers) <= 2 {
		return true
	}
	lines := ix.m.sightLines(ix.centers[i], ix.centers[j], ix.r)
	for seg, ok := lines.next(); ok; seg, ok = lines.next() {
		if !ix.segmentBlocked(seg, i, j) {
			return true
		}
	}
	return false
}

// segmentBlocked reports whether any disc other than i and j comes within
// blocking distance of the candidate sight line. Blocker candidates come
// from the grid cells the segment's capsule (radius blockR) crosses, found
// by a column scanline: for each grid column overlapped by the capsule, only
// the cells spanned by the segment's y-range within that column (plus the
// blocking radius) are visited, so the walk costs O(length/cell) cells for
// any slope instead of O(n) discs. Falls back to the flat scan when the
// capsule covers more cells than there are discs.
func (ix *Index) segmentBlocked(seg geom.Segment, i, j int) bool {
	blockR := ix.r + BlockTol
	block := geom.NewDistBound(blockR)
	h := ix.cell
	ax, ay := seg.A.X, seg.A.Y
	bx, by := seg.B.X, seg.B.Y
	if bx < ax {
		ax, ay, bx, by = bx, by, ax, ay
	}
	x0 := ix.colOf(ax - blockR)
	x1 := ix.colOf(bx + blockR)
	yLo, yHi := math.Min(ay, by), math.Max(ay, by)

	// The scanline visits roughly 3 cells per column plus the segment's
	// vertical extent; when that exceeds n, the flat scan is cheaper.
	if 3*(x1-x0+1)+int((yHi-yLo)/h) > len(ix.centers) {
		for k, c := range ix.centers {
			if k == i || k == j {
				continue
			}
			if block.SegmentWithin(c, seg.A, seg.B) {
				return true
			}
		}
		return false
	}

	dx := bx - ax
	for cx := x0; cx <= x1; cx++ {
		colLo := ix.minX + float64(cx)*h
		colHi := colLo + h
		// y-range of the segment over the x-interval of this column widened
		// by the blocking radius (clamped to the segment's x-extent).
		ya, yb := yLo, yHi
		if dx > geom.Eps {
			xa := math.Max(colLo-blockR, ax)
			xb := math.Min(colHi+blockR, bx)
			ya = ay + (xa-ax)/dx*(by-ay)
			yb = ay + (xb-ax)/dx*(by-ay)
			if ya > yb {
				ya, yb = yb, ya
			}
		}
		cy0 := ix.rowOf(ya - blockR)
		cy1 := ix.rowOf(yb + blockR)
		for cy := cy0; cy <= cy1; cy++ {
			for k := ix.head[cy*ix.cols+cx]; k >= 0; k = ix.next[k] {
				if int(k) == i || int(k) == j {
					continue
				}
				if block.SegmentWithin(ix.centers[k], seg.A, seg.B) {
					return true
				}
			}
		}
	}
	return false
}

// View returns the indices of all discs visible from disc i (including i),
// in increasing index order.
func (ix *Index) View(i int) []int {
	out := make([]int, 0, len(ix.centers))
	for j := range ix.centers {
		if ix.Visible(i, j) {
			out = append(out, j)
		}
	}
	return out
}

// FullVisibility reports whether disc i sees every disc.
func (ix *Index) FullVisibility(i int) bool {
	for j := range ix.centers {
		if !ix.Visible(i, j) {
			return false
		}
	}
	return true
}

// FullyVisible reports whether every disc sees every other disc.
func (ix *Index) FullyVisible() bool {
	for i := range ix.centers {
		if !ix.FullVisibility(i) {
			return false
		}
	}
	return true
}
