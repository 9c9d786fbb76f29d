package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/pieceset"
)

// Canonicalizer lets a custom scenario profile contribute a stable cache
// key. Profiles that do not implement it are encoded via %#v, which is
// deterministic for plain structs but fragile for pointer-bearing ones.
type Canonicalizer interface {
	CanonicalKey() string
}

// fnum formats a float so the canonical key round-trips exactly
// (strconv 'g' with -1 precision; ±Inf encode as "+Inf"/"-Inf").
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// canonicalParams encodes model parameters independent of map iteration
// order and of zero-rate entries being present or absent.
func canonicalParams(p model.Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "K=%d;Us=%s;Mu=%s;Gamma=%s;L{", p.K, fnum(p.Us), fnum(p.Mu), fnum(p.Gamma))
	sets := make([]int, 0, len(p.Lambda))
	for c, l := range p.Lambda {
		if l != 0 {
			sets = append(sets, int(c))
		}
	}
	sort.Ints(sets)
	for i, c := range sets {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%s", c, fnum(p.Lambda[pieceset.Set(c)]))
	}
	b.WriteByte('}')
	return b.String()
}

// canonicalScenario encodes the workload overlay ("" when inactive).
func canonicalScenario(s kernel.Scenario) string {
	if !s.Active() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "churn=%s", fnum(s.Churn))
	switch prof := s.Arrival.(type) {
	case nil:
	case Canonicalizer:
		fmt.Fprintf(&b, ";arrival=%s", prof.CanonicalKey())
	case kernel.FlashCrowd:
		fmt.Fprintf(&b, ";flash(%s,%s,%s,%s,%s)",
			fnum(prof.Start), fnum(prof.Rise), fnum(prof.Hold), fnum(prof.Fall), fnum(prof.Peak))
	default:
		fmt.Fprintf(&b, ";arrival=%#v", prof)
	}
	return b.String()
}

// canonicalPoint encodes a point's evaluation-relevant content (axis
// coordinates excluded: identical parameters deduplicate).
func canonicalPoint(pt Point) string {
	s := canonicalParams(pt.Params)
	if sc := canonicalScenario(pt.Scenario); sc != "" {
		s += "|" + sc
	}
	return s
}

// keyFor derives the cache key — the canonical hash of evaluator identity,
// evaluator fingerprint, and point content — plus the cell's RNG stream
// seed (the key's leading 8 bytes), so the stream too is a pure function
// of cell content.
func keyFor(e Evaluator, pt Point) (key string, seed uint64) {
	sum := sha256.Sum256([]byte(e.Name() + "\x1f" + e.Fingerprint() + "\x1f" + canonicalPoint(pt)))
	return hex.EncodeToString(sum[:16]), binary.BigEndian.Uint64(sum[:8])
}

// Cache memoizes evaluated cells by canonical key. The zero value is not
// usable; construct with NewCache. A Cache is safe for concurrent reads
// and writes, though the Runner only writes between batches.
type Cache struct {
	mu    sync.Mutex
	cells map[string]Cell
	// spill, when non-nil, durably records each Put (OpenCellStore).
	spill *CellStore
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{cells: make(map[string]Cell)}
}

// Len returns the number of memoized cells.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Get returns the memoized cell for key.
func (c *Cache) Get(key string) (Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.cells[key]
	return cell, ok
}

// Put memoizes a cell and spills it when a cell store is attached. point
// is the canonical point string recorded for debuggability (and as the
// store's secondary key).
func (c *Cache) Put(key, point string, cell Cell) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[key] = cell
	if c.spill == nil {
		return nil
	}
	return c.spill.put(key, point, cell)
}
