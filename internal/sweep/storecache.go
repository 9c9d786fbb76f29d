package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/store"
)

// CellStoreApp tags store files holding sweep cache cells.
const CellStoreApp = "p2p-cells/1"

// Cell row encoding: each cell flattens to a header row keyed by the cell
// fingerprint, followed by one row per Values entry:
//
//	field="cell"  header: key, point, class columns set; v = Cell.Value
//	field="val"   one named outcome: name, v (key/point/class repeated)
//
// Rows are appended in Put order (the Runner commits in batch order), so
// the store bytes are deterministic across worker counts.
const (
	cellFieldHeader = "cell"
	cellFieldValue  = "val"
)

// CellStoreSchema returns the column layout CellStore writes: the cell
// fingerprint is the leading (row-key) column.
func CellStoreSchema() store.Schema {
	return store.Schema{
		App: CellStoreApp,
		Cols: []store.Column{
			{Name: "key", Type: store.String},
			{Name: "point", Type: store.String},
			{Name: "class", Type: store.String},
			{Name: "field", Type: store.String},
			{Name: "name", Type: store.String},
			{Name: "v", Type: store.Float64},
		},
	}
}

// CellStore is the columnar spill/resume backend for a sweep Cache. Every
// Put commits one store block (the durability granularity), so a killed
// sweep loses at most the cell being written; OpenCellStore salvages every
// committed cell from a torn file and the next Close makes the file clean
// again.
type CellStore struct {
	w   *store.Writer
	row []store.Value
}

// OpenCellStore opens (or creates) the cell store at path, replays every
// recovered cell into cache, attaches the store as the cache's spill
// target, and returns how many cells were loaded. A torn tail is dropped
// silently: its cells are simply evaluated again.
func OpenCellStore(path string, cache *Cache) (*CellStore, int, error) {
	w, r, err := store.OpenAppend(path, CellStoreSchema(), store.WriterOptions{})
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: cell store: %w", err)
	}
	loaded := 0
	if r != nil {
		loaded, err = loadCells(r, func(key string, _ string, cell Cell) error {
			cache.mu.Lock()
			cache.cells[key] = cell
			cache.mu.Unlock()
			return nil
		})
		if err != nil {
			w.Close()
			return nil, 0, fmt.Errorf("sweep: cell store: %w", err)
		}
	}
	cs := &CellStore{w: w, row: make([]store.Value, 6)}
	cache.mu.Lock()
	cache.spill = cs
	cache.mu.Unlock()
	return cs, loaded, nil
}

// put appends one cell (header row plus sorted Values rows) and commits
// the block so the cell survives a crash.
func (s *CellStore) put(key, point string, cell Cell) error {
	s.row[0] = store.S(key)
	s.row[1] = store.S(point)
	s.row[2] = store.S(cell.Class)
	s.row[3] = store.S(cellFieldHeader)
	s.row[4] = store.S("")
	s.row[5] = store.F(cell.Value)
	if err := s.w.Append(s.row); err != nil {
		return err
	}
	s.row[3] = store.S(cellFieldValue)
	for _, name := range sortedValueKeys(cell.Values) {
		s.row[4] = store.S(name)
		s.row[5] = store.F(cell.Values[name])
		if err := s.w.Append(s.row); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// Close writes the store footer (fast, index-based reopening). The file
// stays recoverable without it.
func (s *CellStore) Close() error { return s.w.Close() }

// loadCells streams cells out of a reader, tolerating a row stream that
// ends mid-cell (the value rows of the last cell may be lost with its
// block only if the header committed separately — put commits cells
// atomically, so in practice cells are all-or-nothing).
func loadCells(r *store.Reader, fn func(key, point string, cell Cell) error) (int, error) {
	if r.Schema().App != CellStoreApp {
		return 0, fmt.Errorf("store app %q is not %q", r.Schema().App, CellStoreApp)
	}
	if !r.Schema().Equal(CellStoreSchema()) {
		return 0, fmt.Errorf("store schema does not match the cell layout")
	}
	var (
		cur     Cell
		curKey  string
		curPt   string
		started bool
		n       int
	)
	flush := func() error {
		if !started || curKey == "" {
			return nil
		}
		n++
		return fn(curKey, curPt, cur)
	}
	err := r.Scan(func(i int64, vals []store.Value) error {
		switch vals[3].String() {
		case cellFieldHeader:
			if err := flush(); err != nil {
				return err
			}
			curKey, curPt = vals[0].String(), vals[1].String()
			cur = Cell{Class: vals[2].String(), Value: vals[5].Float64()}
			started = true
		case cellFieldValue:
			if !started {
				return fmt.Errorf("row %d: value row before any cell header", i)
			}
			if cur.Values == nil {
				cur.Values = make(map[string]float64)
			}
			cur.Values[vals[4].String()] = vals[5].Float64()
		default:
			return fmt.Errorf("row %d: unknown field %q", i, vals[3].String())
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, flush()
}

// cellLine is one exported cell: a JSON line of StoreCellsToJSONL.
type cellLine struct {
	Key   string `json:"key"`
	Point string `json:"point,omitempty"`
	Cell  Cell   `json:"cell"`
}

// StoreCellsToJSONL streams a cell store back out as JSON lines, one
// {key, point, cell} object per cell in Put order — the export path
// cmd/results uses.
func StoreCellsToJSONL(w io.Writer, r *store.Reader) error {
	enc := json.NewEncoder(w)
	_, err := loadCells(r, func(key, point string, cell Cell) error {
		return enc.Encode(cellLine{Key: key, Point: point, Cell: cell})
	})
	return err
}

// sortedValueKeys returns a cell's Values keys in sorted order (the spill
// row order, matching encoding/json's sorted map marshaling).
func sortedValueKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
