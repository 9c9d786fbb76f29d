package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// AxisSpec is one axis of a grid: which parameter it moves and the closed
// range it covers with Cells base cells. A fixed axis (Cells = 1 and
// Min = Max) turns the grid into a 1-D line sweep.
type AxisSpec struct {
	Axis Axis
	Min  float64
	Max  float64
	// Cells is the base (depth-0) cell count along this axis.
	Cells int
}

func (s AxisSpec) validate() error {
	if s.Cells <= 0 {
		return fmt.Errorf("%w: axis %q has %d cells", ErrEmptyGrid, s.Axis.Name, s.Cells)
	}
	// NaN fails every comparison, so non-finite bounds are tested first.
	if math.IsNaN(s.Min) || math.IsNaN(s.Max) || math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) ||
		s.Max < s.Min || (s.Max == s.Min && s.Cells > 1) {
		return fmt.Errorf("%w: axis %q range [%g, %g] with %d cells", ErrEmptyGrid, s.Axis.Name, s.Min, s.Max, s.Cells)
	}
	return nil
}

// center returns the coordinate of fine-cell i among n.
func (s AxisSpec) center(i, n int) float64 {
	if s.Max == s.Min {
		return s.Min
	}
	return s.Min + (s.Max-s.Min)*(float64(i)+0.5)/float64(n)
}

// Grid is a 2-D sweep specification over a base parameter point.
type Grid struct {
	// Base is the parameter point the axes modify; required.
	Base model.Params
	// Scenario is the base workload overlay the scenario axes modify.
	Scenario kernel.Scenario
	// X and Y are the two axes; required.
	X, Y AxisSpec
	// RefineDepth is the number of quadtree bisection levels below the
	// base grid: the final raster has X.Cells·2^depth × Y.Cells·2^depth
	// cells, but only cells straddling a class boundary are evaluated at
	// that resolution.
	RefineDepth int
}

func (g Grid) validate() error {
	if err := g.X.validate(); err != nil {
		return err
	}
	if err := g.Y.validate(); err != nil {
		return err
	}
	if g.RefineDepth < 0 {
		return fmt.Errorf("%w: negative refine depth %d", ErrEmptyGrid, g.RefineDepth)
	}
	return nil
}

// point builds the evaluated point at coordinates (x, y).
func (g Grid) point(x, y float64) (Point, error) {
	pt := Point{Params: cloneParams(g.Base), Scenario: g.Scenario, X: x, Y: y}
	if err := g.X.Axis.Apply(&pt, x); err != nil {
		return Point{}, err
	}
	if err := g.Y.Axis.Apply(&pt, y); err != nil {
		return Point{}, err
	}
	return pt, nil
}

// Map is a completed sweep: a row-major raster of cells at the grid's
// finest resolution, with deterministic iteration order.
type Map struct {
	// NX and NY are the raster dimensions.
	NX, NY int
	// XName and YName echo the axis names.
	XName, YName string
	// Xs and Ys are the cell-center coordinates.
	Xs, Ys []float64
	// Cells holds the raster, row-major: Cells[iy*NX+ix].
	Cells []Cell
	// Stats counts the work performed.
	Stats Stats
}

// At returns the cell at raster position (ix, iy).
func (m *Map) At(ix, iy int) Cell { return m.Cells[iy*m.NX+ix] }

// Classes returns the distinct cell classes, sorted.
func (m *Map) Classes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range m.Cells {
		if !seen[c.Class] {
			seen[c.Class] = true
			out = append(out, c.Class)
		}
	}
	sort.Strings(out)
	return out
}

// XCrossings returns the x coordinates where the class changes along row
// iy (midpoints between adjacent differing cells) — the sweep's estimate
// of where the phase boundary crosses that row.
func (m *Map) XCrossings(iy int) []float64 {
	var out []float64
	for ix := 1; ix < m.NX; ix++ {
		if m.At(ix-1, iy).Class != m.At(ix, iy).Class {
			out = append(out, (m.Xs[ix-1]+m.Xs[ix])/2)
		}
	}
	return out
}

// YCrossings returns the y coordinates where the class changes along
// column ix.
func (m *Map) YCrossings(ix int) []float64 {
	var out []float64
	for iy := 1; iy < m.NY; iy++ {
		if m.At(ix, iy-1).Class != m.At(ix, iy).Class {
			out = append(out, (m.Ys[iy-1]+m.Ys[iy])/2)
		}
	}
	return out
}

// CellWidth returns the fine-cell extent along x.
func (m *Map) CellWidth() float64 {
	if m.NX < 2 {
		return 0
	}
	return m.Xs[1] - m.Xs[0]
}

// CellHeight returns the fine-cell extent along y.
func (m *Map) CellHeight() float64 {
	if m.NY < 2 {
		return 0
	}
	return m.Ys[1] - m.Ys[0]
}

// node is one quadtree cell: level 0 is the base grid; each level halves
// the cell. A node at (lvl, ix, iy) covers fine cells
// [ix·s, (ix+1)·s) × [iy·s, (iy+1)·s) with s = 2^(depth−lvl).
type node struct {
	lvl, ix, iy int
}

// leafEntry pairs a quadtree leaf with its evaluated cell.
type leafEntry struct {
	node
	cell Cell
}

// Run evaluates the grid adaptively: the base grid first, then repeated
// bisection of every leaf whose class disagrees with an adjacent fine
// cell, until the boundary is resolved at RefineDepth or no disagreement
// remains. The refinement schedule is a pure function of evaluated
// classes, so the returned Map is bit-for-bit identical for any worker
// count.
func (g Grid) Run(ctx context.Context, r *Runner) (*Map, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	depth := g.RefineDepth
	fx, fy := g.X.Cells<<depth, g.Y.Cells<<depth
	before := r.stats

	// Evaluate the base grid.
	leaves := make([]leafEntry, 0, g.X.Cells*g.Y.Cells)
	var batch []node
	for iy := 0; iy < g.Y.Cells; iy++ {
		for ix := 0; ix < g.X.Cells; ix++ {
			batch = append(batch, node{lvl: 0, ix: ix, iy: iy})
		}
	}
	// Tracing: Points emits one span per round's batch; the refinement
	// selection between rounds gets its own span here, with the number of
	// quadtree children queued for the next round as its argument.
	var gb *trace.Buf
	if tr := trace.Default(); tr != nil {
		gb = tr.Track("sweep")
	}
	rounds := 0
	for len(batch) > 0 {
		pts := make([]Point, len(batch))
		for i, nd := range batch {
			// Evaluate the node at its center; at depth d the grid has
			// Cells·2^d cells per side.
			nx, ny := g.X.Cells<<nd.lvl, g.Y.Cells<<nd.lvl
			pt, err := g.point(g.X.center(nd.ix, nx), g.Y.center(nd.iy, ny))
			if err != nil {
				return nil, err
			}
			pts[i] = pt
		}
		cells, err := r.Points(ctx, fmt.Sprintf("sweep/%s×%s/round%d", g.X.Axis.Name, g.Y.Axis.Name, rounds), pts)
		if err != nil {
			return nil, err
		}
		for i, nd := range batch {
			leaves = append(leaves, leafEntry{node: nd, cell: cells[i]})
		}
		rounds++

		// Fill the class raster from the current leaves and collect the
		// refinable leaves that disagree with any adjacent fine cell.
		var rt0 int64
		if gb != nil {
			rt0 = gb.Now()
		}
		raster := classRaster(leaves, depth, fx, fy)
		batch = batch[:0]
		kept := leaves[:0]
		for _, lf := range leaves {
			if lf.lvl < depth && disagrees(lf, raster, depth, fx, fy) {
				for _, child := range children(lf.node) {
					batch = append(batch, child)
				}
				continue
			}
			kept = append(kept, lf)
		}
		leaves = kept
		sort.Slice(batch, func(i, j int) bool {
			a, b := batch[i], batch[j]
			if a.lvl != b.lvl {
				return a.lvl < b.lvl
			}
			if a.iy != b.iy {
				return a.iy < b.iy
			}
			return a.ix < b.ix
		})
		if gb != nil {
			gb.Span(fmt.Sprintf("refine/round%d", rounds-1), "sweep", rt0, int64(len(batch)))
		}
	}

	m := g.newMap(fx, fy)
	for _, lf := range leaves {
		x0, x1, y0, y1 := lf.span(depth)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				m.Cells[y*fx+x] = lf.cell
			}
		}
	}
	m.Stats = statsDelta(before, r.stats)
	m.Stats.Rounds = rounds
	m.Stats.DenseCells = fx * fy
	telemetry.Add(telemetry.SweepRounds, uint64(rounds))
	return m, nil
}

// RunDense evaluates every fine cell — the exhaustive baseline the
// adaptive run is benchmarked against.
func (g Grid) RunDense(ctx context.Context, r *Runner) (*Map, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	fx, fy := g.X.Cells<<g.RefineDepth, g.Y.Cells<<g.RefineDepth
	before := r.stats
	pts := make([]Point, 0, fx*fy)
	for iy := 0; iy < fy; iy++ {
		for ix := 0; ix < fx; ix++ {
			pt, err := g.point(g.X.center(ix, fx), g.Y.center(iy, fy))
			if err != nil {
				return nil, err
			}
			pts = append(pts, pt)
		}
	}
	cells, err := r.Points(ctx, fmt.Sprintf("sweep/%s×%s/dense", g.X.Axis.Name, g.Y.Axis.Name), pts)
	if err != nil {
		return nil, err
	}
	m := g.newMap(fx, fy)
	copy(m.Cells, cells)
	m.Stats = statsDelta(before, r.stats)
	m.Stats.Rounds = 1
	m.Stats.DenseCells = fx * fy
	telemetry.Add(telemetry.SweepRounds, 1)
	return m, nil
}

func (g Grid) newMap(fx, fy int) *Map {
	m := &Map{
		NX: fx, NY: fy,
		XName: g.X.Axis.Name, YName: g.Y.Axis.Name,
		Xs:    make([]float64, fx),
		Ys:    make([]float64, fy),
		Cells: make([]Cell, fx*fy),
	}
	for ix := range m.Xs {
		m.Xs[ix] = g.X.center(ix, fx)
	}
	for iy := range m.Ys {
		m.Ys[iy] = g.Y.center(iy, fy)
	}
	return m
}

func statsDelta(before, after Stats) Stats {
	return Stats{
		Evaluated: after.Evaluated - before.Evaluated,
		CacheHits: after.CacheHits - before.CacheHits,
		Deduped:   after.Deduped - before.Deduped,
	}
}

// span returns the node's fine-cell block [x0, x1) × [y0, y1).
func (nd node) span(depth int) (x0, x1, y0, y1 int) {
	s := 1 << (depth - nd.lvl)
	return nd.ix * s, (nd.ix + 1) * s, nd.iy * s, (nd.iy + 1) * s
}

// children bisects a node into its four sub-cells.
func children(nd node) [4]node {
	return [4]node{
		{lvl: nd.lvl + 1, ix: 2 * nd.ix, iy: 2 * nd.iy},
		{lvl: nd.lvl + 1, ix: 2*nd.ix + 1, iy: 2 * nd.iy},
		{lvl: nd.lvl + 1, ix: 2 * nd.ix, iy: 2*nd.iy + 1},
		{lvl: nd.lvl + 1, ix: 2*nd.ix + 1, iy: 2*nd.iy + 1},
	}
}

// classRaster paints each leaf's class over its fine-cell block.
func classRaster(leaves []leafEntry, depth, fx, fy int) []string {
	raster := make([]string, fx*fy)
	for _, lf := range leaves {
		x0, x1, y0, y1 := lf.span(depth)
		for y := y0; y < y1; y++ {
			row := raster[y*fx : (y+1)*fx]
			for x := x0; x < x1; x++ {
				row[x] = lf.cell.Class
			}
		}
	}
	return raster
}

// disagrees reports whether any fine cell adjacent to the leaf's block
// carries a different class — the refinement trigger.
func disagrees(lf leafEntry, raster []string, depth, fx, fy int) bool {
	x0, x1, y0, y1 := lf.span(depth)
	differs := func(x, y int) bool {
		if x < 0 || x >= fx || y < 0 || y >= fy {
			return false
		}
		return raster[y*fx+x] != lf.cell.Class
	}
	for y := y0; y < y1; y++ {
		if differs(x0-1, y) || differs(x1, y) {
			return true
		}
	}
	for x := x0; x < x1; x++ {
		if differs(x, y0-1) || differs(x, y1) {
			return true
		}
	}
	return false
}
