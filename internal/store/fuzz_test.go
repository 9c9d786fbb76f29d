package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// typedOrNil fails the fuzz run unless err is nil or wraps one of the
// package's sentinels — the "typed errors, never panics" contract.
func typedOrNil(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrVersion) || errors.Is(err, ErrSchema) {
		return
	}
	t.Fatalf("%s: untyped error %v", what, err)
}

// FuzzReader throws arbitrary bytes at both reader modes: random
// bit-flips, truncated pages, corrupt manifests, and oversized length
// fields must all yield typed errors — never a panic, hang, or
// length-driven OOM (every allocation is bounded by the input size, which
// the fuzz engine keeps small).
func FuzzReader(f *testing.F) {
	for _, seed := range readerSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, recover := range []bool{false, true} {
			r, err := openBytes(data, recover)
			typedOrNil(t, fmt.Sprintf("open(recover=%v)", recover), err)
			if err != nil {
				continue
			}
			if r.NumRows() < 0 || r.CommittedSize() > int64(len(data)) {
				t.Fatalf("inconsistent reader: rows=%d committed=%d size=%d", r.NumRows(), r.CommittedSize(), len(data))
			}
			scanErr := r.Scan(func(i int64, vals []Value) error {
				if len(vals) != len(r.Schema().Cols) {
					return fmt.Errorf("%w: row arity", ErrCorrupt)
				}
				return nil
			})
			typedOrNil(t, "scan", scanErr)
		}
	})
}

// FuzzRoundTrip drives the writer with pseudo-random rows and pins the
// full-cycle invariant: whatever the writer commits, both readers decode
// back identically, at any block size, including after losing the footer.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0))
	f.Add(uint64(7), uint16(100), uint8(16))
	f.Add(uint64(42), uint16(1000), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, blockRows uint8) {
		rows := randomRows(rng.New(seed|1), int(n)%600)
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: int(blockRows)})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		r, err := NewReader(bytes.NewReader(full), int64(len(full)))
		if err != nil {
			t.Fatalf("strict reopen: %v", err)
		}
		checkRows(t, r, rows)
		// Kill the footer: the recovering reader must still see every row
		// (the writer commits all rows in blocks before the footer).
		torn := full[:len(full)-len(tailMagic)]
		rr, err := NewRecoveringReader(bytes.NewReader(torn), int64(len(torn)))
		if err != nil {
			t.Fatalf("recovering reopen: %v", err)
		}
		checkRows(t, rr, rows)
	})
}

// readerSeedCorpus loads the checked-in seed corpus (and, with
// -update-golden, regenerates it from the current writer): an intact
// store, truncations, bit-flips, a corrupt manifest, an oversized length
// field, and degenerate prefixes.
func readerSeedCorpus(f *testing.F) [][]byte {
	f.Helper()
	intact := corpusStoreBytes(f)
	seeds := map[string][]byte{
		"empty":        {},
		"magic-only":   []byte(headerMagic),
		"intact":       intact,
		"trunc-header": intact[:10],
		"trunc-block":  intact[:len(intact)*2/5],
		"trunc-footer": intact[:len(intact)-9],
	}
	flip := append([]byte{}, intact...)
	flip[len(flip)/2] ^= 0x10 // lands mid-data: a page CRC must catch it
	seeds["bit-flip"] = flip
	badMani := append([]byte{}, intact...)
	badMani[len(badMani)-len(tailMagic)-9] ^= 0xFF // inside the manifest JSON
	seeds["bad-manifest"] = badMani
	huge := append([]byte{}, intact[:len(headerMagic)+8]...)
	// Oversized header meta length: claims 4 GiB of schema JSON.
	huge = huge[:len(headerMagic)+4]
	huge = appendU32(huge, 0xFFFFFFF0)
	seeds["oversized-len"] = huge

	dir := filepath.Join("testdata", "fuzz", "FuzzReader")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			f.Fatal(err)
		}
		for name, data := range seeds {
			entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(entry), 0o644); err != nil {
				f.Fatal(err)
			}
		}
	}
	out := make([][]byte, 0, len(seeds))
	for _, data := range seeds {
		out = append(out, data)
	}
	return out
}

// corpusStoreBytes renders the small deterministic store the seed corpus
// derives from (mixed types, two blocks, with footer).
func corpusStoreBytes(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema(), WriterOptions{BlockRows: 8})
	if err != nil {
		f.Fatal(err)
	}
	for _, row := range randomRows(rng.New(2026), 20) {
		if err := w.Append(row); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
