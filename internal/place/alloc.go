package place

import (
	"fmt"
	"sort"

	"rvcap/internal/fpga"
)

// Policy selects how the allocator chooses among valid anchors. All
// policies are deterministic: ties break toward the lowest (row, col).
type Policy int

const (
	// FirstFit takes the first valid anchor in (row, col) scan order.
	FirstFit Policy = iota
	// BestFit takes the valid anchor whose containing free column run
	// leaves the least slack — it preserves large free runs for large
	// footprints at the cost of packing small modules tightly together.
	BestFit
	// Aligned only anchors at columns that are a multiple of the
	// footprint width from the window origin — the closest amorphous
	// analogue of pre-cut fixed slots (no two placements of one width
	// ever partially overlap a slot boundary).
	Aligned
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case Aligned:
		return "aligned"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a policy name (as spelled by String) back to its
// value, for flag parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "first-fit":
		return FirstFit, nil
	case "best-fit":
		return BestFit, nil
	case "aligned":
		return Aligned, nil
	}
	return 0, fmt.Errorf("place: unknown policy %q", s)
}

// Window is the rectangle of fabric (inclusive bounds) the allocator
// manages — the reconfigurable area of the floorplan. Everything
// outside it is static.
type Window struct {
	Row0, Row1 int
	Col0, Col1 int
}

// ErrNoSpace is returned by Alloc when no valid anchor exists for a
// footprint — the signal for the caller to defragment or reject.
var ErrNoSpace = fmt.Errorf("place: no free anchor for footprint")

// Allocator packs footprints into the window at frame granularity,
// creating and destroying fabric partitions at runtime.
type Allocator struct {
	fab *fpga.Fabric
	win Window
	pol Policy

	regions []*Region // creation order
	met     Metrics
}

// New returns an allocator managing win on fab under pol.
func New(fab *fpga.Fabric, win Window, pol Policy) (*Allocator, error) {
	dev := fab.Dev
	if win.Row0 < 0 || win.Row1 >= dev.Rows || win.Row0 > win.Row1 ||
		win.Col0 < 0 || win.Col1 >= len(dev.Cols) || win.Col0 > win.Col1 {
		return nil, fmt.Errorf("place: window rows %d-%d cols %d-%d outside device %s",
			win.Row0, win.Row1, win.Col0, win.Col1, dev.Name)
	}
	return &Allocator{fab: fab, win: win, pol: pol}, nil
}

// Window returns the managed rectangle.
func (a *Allocator) Window() Window { return a.win }

// Policy returns the placement policy.
func (a *Allocator) Policy() Policy { return a.pol }

// Regions returns the live regions in creation order.
func (a *Allocator) Regions() []*Region { return a.regions }

// colFree reports whether every frame of column col in clock region row
// is unowned.
func (a *Allocator) colFree(row, col int) bool {
	dev := a.fab.Dev
	for m := 0; m < dev.Cols[col].FramesPerColumn(); m++ {
		idx, err := dev.FrameIndex(row, col, m)
		if err != nil || a.fab.Owner(idx) != nil {
			return false
		}
	}
	return true
}

// shapeFits reports whether fp's geometry matches an anchor at
// (row, col): inside the window with positionally matching column
// kinds. Occupancy is not considered.
func (a *Allocator) shapeFits(row, col int, fp Footprint) bool {
	if row < a.win.Row0 || row+fp.Rows-1 > a.win.Row1 {
		return false
	}
	if col < a.win.Col0 || col+fp.Width()-1 > a.win.Col1 {
		return false
	}
	for k, kind := range fp.Kinds {
		if a.fab.Dev.Cols[col+k] != kind {
			return false
		}
	}
	return true
}

// fits reports whether fp can be placed at (row, col) right now.
func (a *Allocator) fits(row, col int, fp Footprint) bool {
	if !a.shapeFits(row, col, fp) {
		return false
	}
	for k := range fp.Kinds {
		for r := row; r < row+fp.Rows; r++ {
			if !a.colFree(r, col+k) {
				return false
			}
		}
	}
	return true
}

// ShapeEverFits reports whether fp has at least one geometrically valid
// anchor in the window — whether it could be placed on an empty fabric.
func (a *Allocator) ShapeEverFits(fp Footprint) bool {
	for r := a.win.Row0; r <= a.win.Row1; r++ {
		for c := a.win.Col0; c <= a.win.Col1; c++ {
			if a.shapeFits(r, c, fp) {
				return true
			}
		}
	}
	return false
}

// runSlack returns how many free columns surround a placement of width
// w at (row, col) within its contiguous free run (the best-fit score:
// lower means a tighter fit). Multi-row footprints count a column free
// only when it is free across all their rows.
func (a *Allocator) runSlack(row, col, w, rows int) int {
	free := func(c int) bool {
		for r := row; r < row+rows; r++ {
			if !a.colFree(r, c) {
				return false
			}
		}
		return true
	}
	slack := 0
	for c := col - 1; c >= a.win.Col0 && free(c); c-- {
		slack++
	}
	for c := col + w; c <= a.win.Col1 && free(c); c++ {
		slack++
	}
	return slack
}

// findAnchor picks the policy's anchor for fp, or ok=false.
func (a *Allocator) findAnchor(fp Footprint) (row, col int, ok bool) {
	w := fp.Width()
	switch a.pol {
	case BestFit:
		bestR, bestC, bestSlack := -1, -1, int(^uint(0)>>1)
		for r := a.win.Row0; r <= a.win.Row1; r++ {
			for c := a.win.Col0; c <= a.win.Col1; c++ {
				if !a.fits(r, c, fp) {
					continue
				}
				if s := a.runSlack(r, c, w, fp.Rows); s < bestSlack {
					bestR, bestC, bestSlack = r, c, s
				}
			}
		}
		return bestR, bestC, bestR >= 0
	case Aligned:
		for r := a.win.Row0; r <= a.win.Row1; r++ {
			for c := a.win.Col0; c <= a.win.Col1; c += w {
				if a.fits(r, c, fp) {
					return r, c, true
				}
			}
		}
		return 0, 0, false
	default: // FirstFit
		return a.firstFitAnchor(fp)
	}
}

// addPart creates the fabric partition realising fp at (row, col).
func (a *Allocator) addPart(name string, row, col int, fp Footprint) (*fpga.Partition, error) {
	dev := a.fab.Dev
	frames, err := dev.ColumnSpanFrames(row, row+fp.Rows-1, col, col+fp.Width()-1)
	if err != nil {
		return nil, err
	}
	span := dev.SpanResources(row, row+fp.Rows-1, col, col+fp.Width()-1)
	return a.fab.AddPartition(name, frames, fp.Demand, span)
}

// Alloc places fp under the policy and creates a partition named name
// for it. ErrNoSpace means no valid anchor currently exists (counted as
// a failed placement); the caller may Defrag and retry.
func (a *Allocator) Alloc(name string, fp Footprint) (*Region, error) {
	if err := fp.validate(); err != nil {
		return nil, err
	}
	row, col, ok := a.findAnchor(fp)
	if !ok {
		a.met.FailedPlacements++
		return nil, fmt.Errorf("%w: %dx%d cols for %s", ErrNoSpace, fp.Rows, fp.Width(), name)
	}
	p, err := a.addPart(name, row, col, fp)
	if err != nil {
		return nil, err
	}
	r := &Region{Name: name, Row: row, Col: col, FP: fp, Part: p}
	a.regions = append(a.regions, r)
	a.met.Placements++
	return r, nil
}

// Free destroys r's partition and forgets the region. The configuration
// memory keeps whatever the region last loaded — blank the span (see
// bitstream.BlankFrames) if stale logic must not linger.
func (a *Allocator) Free(r *Region) error {
	at := -1
	for i, q := range a.regions {
		if q == r {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("place: region %s not owned by this allocator", r.Name)
	}
	if err := a.fab.RemovePartition(r.Part); err != nil {
		return err
	}
	a.regions = append(a.regions[:at], a.regions[at+1:]...)
	return nil
}

// sortedByAnchor returns the live regions ordered by (row, col) — the
// deterministic sweep order of the defragmenter.
func (a *Allocator) sortedByAnchor() []*Region {
	order := append([]*Region(nil), a.regions...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Row != order[j].Row {
			return order[i].Row < order[j].Row
		}
		return order[i].Col < order[j].Col
	})
	return order
}
