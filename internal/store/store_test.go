package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// testSchema mirrors the engine record layout: the mixed-type shape the
// store carries in production.
func testSchema() Schema {
	return Schema{
		App: "store-test/1",
		Cols: []Column{
			{Name: "kind", Type: String},
			{Name: "replica", Type: Int64},
			{Name: "name", Type: String},
			{Name: "v", Type: Float64},
		},
	}
}

// randomRows draws n deterministic pseudo-random rows for testSchema,
// including negative ints, repeated and empty strings, and non-finite
// floats (the format stores raw bits, so NaN/Inf must round-trip).
func randomRows(r *rng.RNG, n int) [][]Value {
	kinds := []string{"replica", "aggregate", ""}
	rows := make([][]Value, n)
	for i := range rows {
		v := r.Float64()*200 - 100
		switch r.Intn(16) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		}
		rows[i] = []Value{
			S(kinds[r.Intn(len(kinds))]),
			I(int64(r.Intn(2000)) - 1000),
			S(fmt.Sprintf("metric_%d", r.Intn(7))),
			F(v),
		}
	}
	return rows
}

func writeRows(t *testing.T, w *Writer, rows [][]Value) {
	t.Helper()
	for i, row := range rows {
		if err := w.Append(row); err != nil {
			t.Fatalf("Append(row %d): %v", i, err)
		}
	}
}

// sameValue compares cells with NaN-aware float equality.
func sameValue(a, b Value) bool {
	if a.t != b.t {
		return false
	}
	switch a.t {
	case Float64:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case Int64:
		return a.i == b.i
	default:
		return a.s == b.s
	}
}

func checkRows(t *testing.T, r *Reader, want [][]Value) {
	t.Helper()
	if r.NumRows() != int64(len(want)) {
		t.Fatalf("NumRows = %d, want %d", r.NumRows(), len(want))
	}
	err := r.Scan(func(i int64, vals []Value) error {
		for c := range vals {
			if !sameValue(vals[c], want[i][c]) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, c, vals[c].Any(), want[i][c].Any())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip pins the basic contract: what goes in comes out, across
// block boundaries, through both strict and recovering readers.
func TestRoundTrip(t *testing.T) {
	rows := randomRows(rng.New(7), 1000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, strict := range []bool{true, false} {
		r, err := openBytes(buf.Bytes(), !strict)
		if err != nil {
			t.Fatalf("open (strict=%v): %v", strict, err)
		}
		if !r.Clean() {
			t.Errorf("Clean() = false on an intact file")
		}
		if !r.Schema().Equal(testSchema()) {
			t.Errorf("schema mismatch: %+v", r.Schema())
		}
		checkRows(t, r, rows)
	}
}

// TestRandomAccess pins O(1)-style random row access against sequential
// ground truth, plus the typed accessors.
func TestRandomAccess(t *testing.T) {
	rows := randomRows(rng.New(11), 500)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 37})
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	pick := rng.New(3)
	for n := 0; n < 200; n++ {
		i := int64(pick.Intn(len(rows)))
		got, err := r.Row(i, nil)
		if err != nil {
			t.Fatalf("Row(%d): %v", i, err)
		}
		for c := range got {
			if !sameValue(got[c], rows[i][c]) {
				t.Fatalf("Row(%d) col %d = %v, want %v", i, c, got[c].Any(), rows[i][c].Any())
			}
		}
		if s, err := r.StringAt(i, 0); err != nil || s != rows[i][0].String() {
			t.Fatalf("StringAt(%d,0) = %q, %v", i, s, err)
		}
		if x, err := r.Int64At(i, 1); err != nil || x != rows[i][1].Int64() {
			t.Fatalf("Int64At(%d,1) = %d, %v", i, x, err)
		}
		if f, err := r.Float64At(i, 3); err != nil || math.Float64bits(f) != math.Float64bits(rows[i][3].Float64()) {
			t.Fatalf("Float64At(%d,3) = %v, %v", i, f, err)
		}
	}
	if _, err := r.Float64At(0, 0); !errors.Is(err, ErrSchema) {
		t.Errorf("Float64At on string column: err = %v, want ErrSchema", err)
	}
	if _, err := r.Row(int64(len(rows)), nil); err == nil {
		t.Errorf("Row out of range: want error")
	}
}

// TestDeterministicBytes pins the writer's no-environment-bytes contract:
// the same rows produce the same file, byte for byte.
func TestDeterministicBytes(t *testing.T) {
	rows := randomRows(rng.New(5), 300)
	render := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 50})
		writeRows(t, w, rows)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical writes differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestOpenAppendResume pins the resume path: close, reopen for append,
// add rows, and read everything back; then the same over a torn tail.
func TestOpenAppendResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "resume.store")
	first := randomRows(rng.New(21), 150)
	second := randomRows(rng.New(22), 90)

	w, reader, err := OpenAppend(path, testSchema(), WriterOptions{BlockRows: 40})
	if err != nil {
		t.Fatal(err)
	}
	if reader != nil {
		t.Fatalf("fresh OpenAppend returned a reader")
	}
	writeRows(t, w, first)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, reader, err = OpenAppend(path, testSchema(), WriterOptions{BlockRows: 40})
	if err != nil {
		t.Fatal(err)
	}
	if reader == nil || reader.NumRows() != int64(len(first)) {
		t.Fatalf("reopen recovered %v rows, want %d", reader, len(first))
	}
	checkRows(t, reader, first)
	writeRows(t, w, second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkRows(t, r, append(append([][]Value{}, first...), second...))

	// Schema mismatch on append must be refused.
	other := testSchema()
	other.Cols[0].Type = Int64
	if _, _, err := OpenAppend(path, other, WriterOptions{}); !errors.Is(err, ErrSchema) {
		t.Errorf("OpenAppend with different schema: err = %v, want ErrSchema", err)
	}
}

// TestOpenAppendTornTail: a crash mid-append (simulated by truncating
// into the last block) must resume from the last committed block and end
// with a clean, fully readable file.
func TestOpenAppendTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.store")
	rows := randomRows(rng.New(31), 100)
	w, _, err := OpenAppend(path, testSchema(), WriterOptions{BlockRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	// Chop into the final block+footer region: drop 25% of the file.
	if err := os.Truncate(path, st.Size()*3/4); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	salvaged := r.NumRows()
	if r.Clean() || salvaged <= 0 || salvaged >= int64(len(rows)) {
		t.Fatalf("salvaged %d rows from torn file (clean=%v), want a committed prefix", salvaged, r.Clean())
	}
	checkRows(t, r, rows[:salvaged])
	r.Close()

	w, reader, err := OpenAppend(path, testSchema(), WriterOptions{BlockRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reader == nil || reader.NumRows() != salvaged {
		t.Fatalf("append-resume recovered %d rows, want %d", reader.NumRows(), salvaged)
	}
	writeRows(t, w, rows[salvaged:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatalf("strict open after repair: %v", err)
	}
	defer r2.Close()
	if !r2.Clean() {
		t.Errorf("repaired file not clean")
	}
	checkRows(t, r2, rows)
}

// TestVersionBump is the format-drift tripwire's negative half: a file
// stamped with a future major version must fail with ErrVersion, in both
// the header and (independently corrupted) manifest paths.
func TestVersionBump(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{})
	writeRows(t, w, randomRows(rng.New(1), 10))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := append([]byte{}, buf.Bytes()...)
	// The header major lives right after the magic; restamp it and fix
	// the header CRC so version-gating (not CRC) rejects the file.
	b[len(headerMagic)] = MajorVersion + 1
	metaLen := int64(readU32(b[len(headerMagic)+4:]))
	hdrEnd := int64(len(headerMagic)) + 8 + metaLen
	crc := checksum(b[:hdrEnd])
	copy(b[hdrEnd:hdrEnd+4], appendU32(nil, crc))
	for _, recover := range []bool{false, true} {
		_, err := openBytes(b, recover)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("future major (recover=%v): err = %v, want ErrVersion", recover, err)
		}
	}
}

// openBytes opens data strictly or, with salvage, recovering.
func openBytes(data []byte, salvage bool) (*Reader, error) {
	if salvage {
		return NewRecoveringReader(bytes.NewReader(data), int64(len(data)))
	}
	return NewReader(bytes.NewReader(data), int64(len(data)))
}

// TestBoundedMemory pins the no-whole-file-slurp contract: scanning a
// store of far more blocks than defaultCacheBlocks keeps at most that many
// decoded blocks resident, while random access still hits the cache.
func TestBoundedMemory(t *testing.T) {
	rows := randomRows(rng.New(13), 4000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 16}) // 250 blocks
	writeRows(t, w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBlocks() != 250 {
		t.Fatalf("NumBlocks = %d, want 250", r.NumBlocks())
	}
	checkRows(t, r, rows)
	if got := r.cache.len(); got > defaultCacheBlocks {
		t.Errorf("cache holds %d blocks after full scan, cap %d", got, defaultCacheBlocks)
	}
	// Re-reading rows within the resident window must not grow the cache.
	for i := int64(0); i < 16; i++ {
		if _, err := r.Row(r.NumRows()-1-i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.cache.len(); got > defaultCacheBlocks {
		t.Errorf("cache holds %d blocks after tail re-reads, cap %d", got, defaultCacheBlocks)
	}
}

// TestEmptyStore: a store closed with zero rows is valid and readable.
func TestEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema(), WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 || r.NumBlocks() != 0 || !r.Clean() {
		t.Errorf("empty store: rows=%d blocks=%d clean=%v", r.NumRows(), r.NumBlocks(), r.Clean())
	}
}

// TestSchemaValidation pins writer-side schema and row-shape errors.
func TestSchemaValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Schema{}, WriterOptions{}); !errors.Is(err, ErrSchema) {
		t.Errorf("empty schema: err = %v, want ErrSchema", err)
	}
	dup := Schema{Cols: []Column{{Name: "a", Type: Float64}, {Name: "a", Type: Int64}}}
	if _, err := NewWriter(&buf, dup, WriterOptions{}); !errors.Is(err, ErrSchema) {
		t.Errorf("duplicate column: err = %v, want ErrSchema", err)
	}
	w, err := NewWriter(&buf, testSchema(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Value{S("x")}); !errors.Is(err, ErrSchema) {
		t.Errorf("short row: err = %v, want ErrSchema", err)
	}
	if err := w.Append([]Value{F(1), I(2), S("x"), F(3)}); !errors.Is(err, ErrSchema) {
		t.Errorf("wrong type: err = %v, want ErrSchema", err)
	}
}

// goldenSchema/goldenRows define the checked-in golden_v1.store fixture:
// a tiny fixed store whose exact bytes pin format v1 against drift.
func goldenSchema() Schema {
	return Schema{
		App: "p2p-golden/1",
		Cols: []Column{
			{Name: "kind", Type: String},
			{Name: "replica", Type: Int64},
			{Name: "v", Type: Float64},
		},
	}
}

func goldenRows() [][]Value {
	return [][]Value{
		{S("replica"), I(0), F(1.5)},
		{S("replica"), I(1), F(-2.25)},
		{S("replica"), I(2), F(math.Inf(1))},
		{S("aggregate"), I(3), F(0.3333333333333333)},
		{S("replica"), I(-1), F(0)},
	}
}

// goldenBytes renders the fixture with two committed blocks (3+2 rows).
func goldenBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, goldenSchema(), WriterOptions{BlockRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenRows() {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenBytes is the format-drift tripwire: today's writer must
// reproduce the checked-in v1 fixture byte for byte, and today's reader
// must read it. Any layout change fails here until MajorVersion is
// bumped and a migration story exists. Regenerate (after a deliberate
// bump) with: go test ./internal/store -run TestGoldenBytes -update-golden
func TestGoldenBytes(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.store")
	got := goldenBytes(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer output drifted from golden v1 fixture (%d vs %d bytes); a format change needs a major-version bump", len(got), len(want))
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if major, minor := r.Version(); major != 1 || minor != 0 {
		t.Errorf("golden version = %d.%d, want 1.0", major, minor)
	}
	if r.NumBlocks() != 2 {
		t.Errorf("golden blocks = %d, want 2", r.NumBlocks())
	}
	checkRows(t, r, goldenRows())
}
