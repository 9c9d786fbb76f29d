package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// benchRows is the ROADMAP-scale row count: a million-replica run's
// record volume, written and read back with bounded memory.
const benchRows = 1_000_000

// benchRow fills row in place for index i: the mixed-type shape of an
// engine record row, with realistic dictionary pressure (few distinct
// strings per page).
func benchRow(row []Value, i int, r *rng.RNG) {
	row[0] = S("replica")
	row[1] = I(int64(i))
	row[2] = S(fmt.Sprintf("metric_%d", i%5))
	row[3] = F(r.Float64())
}

func benchFile(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.store")
	w, err := Create(path, testSchema(), WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	row := make([]Value, 4)
	for i := 0; i < benchRows; i++ {
		benchRow(row, i, r)
		if err := w.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkStoreWrite streams 1e6 mixed-type rows per iteration into a
// fresh store file (the write-throughput row of CI's BENCH.json).
func BenchmarkStoreWrite(b *testing.B) {
	dir := b.TempDir()
	row := make([]Value, 4)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		path := filepath.Join(dir, fmt.Sprintf("w%d.store", it))
		w, err := Create(path, testSchema(), WriterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		for i := 0; i < benchRows; i++ {
			benchRow(row, i, r)
			if err := w.Append(row); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st, _ := os.Stat(path)
		b.ReportMetric(float64(st.Size())/benchRows, "bytes/row")
		os.Remove(path)
		b.StartTimer()
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreRead scans all 1e6 rows per iteration through the
// bounded block cache (no whole-file slurp).
func BenchmarkStoreRead(b *testing.B) {
	path := benchFile(b)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		r, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		var rows int64
		err = r.Scan(func(i int64, vals []Value) error {
			rows++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows != benchRows {
			b.Fatalf("scanned %d rows", rows)
		}
		r.Close()
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreRandomRead measures point lookups through the LRU block
// cache on the 1e6-row file.
func BenchmarkStoreRandomRead(b *testing.B) {
	path := benchFile(b)
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	pick := rng.New(9)
	var buf []Value
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		i := int64(pick.Intn(benchRows))
		buf, err = r.Row(i, buf)
		if err != nil {
			b.Fatal(err)
		}
		if buf[1].Int64() != i {
			b.Fatalf("row %d holds replica %d", i, buf[1].Int64())
		}
	}
}
