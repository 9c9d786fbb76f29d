package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/telemetry"
)

// Reader reads a store: O(1) typed access to any row through an LRU
// cache of at most defaultCacheBlocks decoded blocks, so memory stays
// bounded however large the file is. A Reader is not safe for concurrent
// use.
type Reader struct {
	ra     io.ReaderAt
	f      *os.File // non-nil when Open/Recover owns the file
	size   int64
	schema Schema
	major  uint16
	minor  uint16

	blocks   []blockEntry
	cumRows  []int64 // cumRows[i] = rows before block i
	rows     int64
	clean    bool  // footer present and valid
	dataEnd  int64 // end offset of the last committed block
	cache    *blockCache
	pagesR   *telemetry.Counter
	bytesR   *telemetry.Counter
	cacheHit *telemetry.Counter
}

// Open opens a store file strictly: the header, footer manifest, and
// block index must all validate. Close releases the file.
func Open(path string) (*Reader, error) { return openFile(path, false) }

// Recover opens a store file in salvage mode: a missing or corrupt footer
// falls back to a block scan that keeps every fully committed block.
// Close releases the file.
func Recover(path string) (*Reader, error) { return openFile(path, true) }

func openFile(path string, salvage bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open: %w", err)
	}
	r, err := newReader(f, st.Size(), salvage)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
}

// NewReader opens a store over any io.ReaderAt strictly (footer
// required).
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	return newReader(ra, size, false)
}

// NewRecoveringReader opens a store over any io.ReaderAt in salvage mode.
func NewRecoveringReader(ra io.ReaderAt, size int64) (*Reader, error) {
	return newReader(ra, size, true)
}

// newReader opens a store over ra. With salvage set, a file without (or
// with an invalid) footer is recovered by scanning blocks from the header:
// every block whose CRC validates is kept, and the scan stops at the first
// torn byte. Without it, such files fail to open with a typed error.
func newReader(ra io.ReaderAt, size int64, salvage bool) (*Reader, error) {
	r := &Reader{ra: ra, size: size}
	if reg := telemetry.Default(); reg != nil {
		r.pagesR = reg.Counter(telemetry.StorePagesRead)
		r.bytesR = reg.Counter(telemetry.StoreBytesRead)
		r.cacheHit = reg.Counter(telemetry.StoreBlockCacheHits)
	}
	headerEnd, err := r.readHeader()
	if err != nil {
		return nil, err
	}
	if ferr := r.readFooter(headerEnd); ferr != nil {
		if !salvage {
			return nil, ferr
		}
		if err := r.scanBlocks(headerEnd); err != nil {
			return nil, err
		}
		if reg := telemetry.Default(); reg != nil {
			reg.Counter(telemetry.StoreBlocksRecovered).Add(uint64(len(r.blocks)))
		}
	}
	r.cumRows = make([]int64, len(r.blocks)+1)
	for i, b := range r.blocks {
		r.cumRows[i+1] = r.cumRows[i] + int64(b.Rows)
	}
	r.rows = r.cumRows[len(r.blocks)]
	r.cache = newBlockCache(defaultCacheBlocks)
	return r, nil
}

// readAt reads exactly len(b) bytes at off, classifying short reads as
// truncation.
func (r *Reader) readAt(b []byte, off int64) error {
	if off < 0 || off+int64(len(b)) > r.size {
		return fmt.Errorf("%w: read [%d,+%d) beyond size %d", ErrTruncated, off, len(b), r.size)
	}
	if _, err := io.ReadFull(io.NewSectionReader(r.ra, off, int64(len(b))), b); err != nil {
		return fmt.Errorf("%w: read at %d: %v", ErrTruncated, off, err)
	}
	if r.bytesR != nil {
		r.bytesR.Add(uint64(len(b)))
	}
	return nil
}

// readHeader validates the magic, version, and embedded schema; returns
// the offset of the first block.
func (r *Reader) readHeader() (int64, error) {
	fixed := make([]byte, len(headerMagic)+8)
	if r.size < int64(len(fixed)) {
		return 0, fmt.Errorf("%w: %d bytes is smaller than a header", ErrTruncated, r.size)
	}
	if err := r.readAt(fixed, 0); err != nil {
		return 0, err
	}
	if string(fixed[:len(headerMagic)]) != headerMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.major = readU16(fixed[len(headerMagic):])
	r.minor = readU16(fixed[len(headerMagic)+2:])
	if r.major != MajorVersion {
		return 0, fmt.Errorf("%w: file major %d, this reader speaks %d", ErrVersion, r.major, MajorVersion)
	}
	metaLen := int64(readU32(fixed[len(headerMagic)+4:]))
	headerEnd := int64(len(fixed)) + metaLen + 4
	if headerEnd > r.size {
		return 0, fmt.Errorf("%w: header meta length %d exceeds file", ErrTruncated, metaLen)
	}
	rest := make([]byte, metaLen+4)
	if err := r.readAt(rest, int64(len(fixed))); err != nil {
		return 0, err
	}
	full := append(fixed, rest[:metaLen]...)
	if checksum(full) != readU32(rest[metaLen:]) {
		return 0, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	var sj schemaJSON
	if err := json.Unmarshal(rest[:metaLen], &sj); err != nil {
		return 0, fmt.Errorf("%w: header schema JSON: %v", ErrCorrupt, err)
	}
	schema, err := sj.toSchema()
	if err != nil {
		return 0, err
	}
	r.schema = schema
	r.dataEnd = headerEnd
	return headerEnd, nil
}

// readFooter locates and validates the footer manifest from the file
// tail, then sanity-checks the block index against the file bounds.
func (r *Reader) readFooter(headerEnd int64) error {
	tail := make([]byte, 4+4+len(tailMagic)) // crc | maniLen | tail magic
	if r.size < headerEnd+int64(len(footerTag))+4+int64(len(tail)) {
		return fmt.Errorf("%w: no footer", ErrTruncated)
	}
	if err := r.readAt(tail, r.size-int64(len(tail))); err != nil {
		return err
	}
	if string(tail[8:]) != tailMagic {
		return fmt.Errorf("%w: no footer tail magic", ErrTruncated)
	}
	maniCRC, maniLen := readU32(tail), int64(readU32(tail[4:]))
	footOff := r.size - int64(len(tail)) - maniLen - int64(len(footerTag)) - 4
	if footOff < headerEnd {
		return fmt.Errorf("%w: footer length %d exceeds file", ErrCorrupt, maniLen)
	}
	head := make([]byte, len(footerTag)+4)
	if err := r.readAt(head, footOff); err != nil {
		return err
	}
	if string(head[:len(footerTag)]) != footerTag || int64(readU32(head[len(footerTag):])) != maniLen {
		return fmt.Errorf("%w: footer framing mismatch", ErrCorrupt)
	}
	j := make([]byte, maniLen)
	if err := r.readAt(j, footOff+int64(len(head))); err != nil {
		return err
	}
	if checksum(j) != maniCRC {
		return fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	var m manifest
	if err := json.Unmarshal(j, &m); err != nil {
		return fmt.Errorf("%w: manifest JSON: %v", ErrCorrupt, err)
	}
	if m.Major != MajorVersion {
		return fmt.Errorf("%w: manifest major %d, this reader speaks %d", ErrVersion, m.Major, MajorVersion)
	}
	schema, err := m.Schema.toSchema()
	if err != nil {
		return err
	}
	if !schema.Equal(r.schema) {
		return fmt.Errorf("%w: manifest schema disagrees with header", ErrCorrupt)
	}
	// The block index must describe contiguous, in-bounds blocks.
	var rows int64
	off := headerEnd
	for i, b := range m.Blocks {
		if b.Off != off || b.Len < int64(len(blockTag))+8 || b.Off+b.Len > footOff {
			return fmt.Errorf("%w: block index entry %d out of bounds", ErrCorrupt, i)
		}
		off = b.Off + b.Len
		rows += int64(b.Rows)
	}
	if rows != m.Rows {
		return fmt.Errorf("%w: manifest rows %d != block index sum %d", ErrCorrupt, m.Rows, rows)
	}
	r.blocks = m.Blocks
	r.clean = true
	r.dataEnd = off
	return nil
}

// scanBlocks walks blocks forward from the header, keeping every block
// whose framing and CRC validate and stopping at the first torn or
// foreign byte. It never fails: a wholly torn data section just yields
// zero blocks.
func (r *Reader) scanBlocks(headerEnd int64) error {
	off := headerEnd
	head := make([]byte, len(blockTag)+4)
	for {
		if off+int64(len(head)) > r.size {
			return nil // torn mid-frame
		}
		if err := r.readAt(head, off); err != nil {
			return nil
		}
		tag := string(head[:len(blockTag)])
		if tag == footerTag {
			return nil // stale footer from before an append crash
		}
		if tag != blockTag {
			return nil
		}
		payloadLen := int64(readU32(head[len(blockTag):]))
		total := int64(len(head)) + payloadLen + 4
		if off+total > r.size {
			return nil // torn mid-block
		}
		payload := make([]byte, payloadLen+4)
		if err := r.readAt(payload, off+int64(len(head))); err != nil {
			return nil
		}
		if payloadLen < 4 {
			return nil
		}
		if checksum(payload[:payloadLen]) != readU32(payload[payloadLen:]) {
			return nil // torn or corrupt block: stop, keep what we have
		}
		r.blocks = append(r.blocks, blockEntry{
			Off: off, Len: total, Rows: readU32(payload), CRC: readU32(payload[payloadLen:]),
		})
		off += total
		r.dataEnd = off
	}
}

// Schema returns the store's schema.
func (r *Reader) Schema() Schema { return r.schema }

// Version returns the file's format version.
func (r *Reader) Version() (major, minor int) { return int(r.major), int(r.minor) }

// NumRows returns the number of committed rows visible to the reader.
func (r *Reader) NumRows() int64 { return r.rows }

// NumBlocks returns the number of committed blocks.
func (r *Reader) NumBlocks() int { return len(r.blocks) }

// Clean reports whether the file had a valid footer (false means the
// reader salvaged a torn file by block scan).
func (r *Reader) Clean() bool { return r.clean }

// CommittedSize returns the end offset of the last committed block — the
// truncation point OpenAppend resumes from.
func (r *Reader) CommittedSize() int64 { return r.dataEnd }

// Size returns the total byte size the reader was opened over.
func (r *Reader) Size() int64 { return r.size }

// Close releases the file when the reader owns one (Open/Recover).
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// locate maps a row index to (block index, row offset within block). An
// out-of-range index is a caller bug, not file corruption, so the error
// wraps no sentinel.
func (r *Reader) locate(row int64) (int, uint32, error) {
	if row < 0 || row >= r.rows {
		return 0, 0, fmt.Errorf("store: row %d out of range [0,%d)", row, r.rows)
	}
	// First block whose cumulative end exceeds row.
	bi := sort.Search(len(r.blocks), func(i int) bool { return r.cumRows[i+1] > row })
	return bi, uint32(row - r.cumRows[bi]), nil
}

// block returns block bi decoded, through the LRU cache.
func (r *Reader) block(bi int) (*decodedBlock, error) {
	if b := r.cache.get(bi); b != nil {
		if r.cacheHit != nil {
			r.cacheHit.Inc()
		}
		return b, nil
	}
	b, err := r.decodeBlock(r.blocks[bi])
	if err != nil {
		return nil, err
	}
	if r.pagesR != nil {
		r.pagesR.Add(uint64(len(r.schema.Cols)))
	}
	r.cache.put(bi, b)
	return b, nil
}

// Row returns row i's values, reusing buf when it has capacity. The
// returned slice is valid until the next Row call with the same buf.
func (r *Reader) Row(i int64, buf []Value) ([]Value, error) {
	bi, off, err := r.locate(i)
	if err != nil {
		return nil, err
	}
	b, err := r.block(bi)
	if err != nil {
		return nil, err
	}
	if cap(buf) < len(r.schema.Cols) {
		buf = make([]Value, len(r.schema.Cols))
	}
	buf = buf[:len(r.schema.Cols)]
	for c := range r.schema.Cols {
		buf[c] = b.value(c, off)
	}
	return buf, nil
}

// Float64At returns the float64 cell at (row, col). The column must be
// Float64 (ErrSchema otherwise).
func (r *Reader) Float64At(row int64, col int) (float64, error) {
	v, err := r.cell(row, col, Float64)
	return v.f, err
}

// Int64At returns the int64 cell at (row, col).
func (r *Reader) Int64At(row int64, col int) (int64, error) {
	v, err := r.cell(row, col, Int64)
	return v.i, err
}

// StringAt returns the string cell at (row, col).
func (r *Reader) StringAt(row int64, col int) (string, error) {
	v, err := r.cell(row, col, String)
	return v.s, err
}

func (r *Reader) cell(row int64, col int, want Type) (Value, error) {
	if col < 0 || col >= len(r.schema.Cols) {
		return Value{}, fmt.Errorf("%w: column %d out of range", ErrSchema, col)
	}
	if r.schema.Cols[col].Type != want {
		return Value{}, fmt.Errorf("%w: column %q is %v, not %v", ErrSchema, r.schema.Cols[col].Name, r.schema.Cols[col].Type, want)
	}
	bi, off, err := r.locate(row)
	if err != nil {
		return Value{}, err
	}
	b, err := r.block(bi)
	if err != nil {
		return Value{}, err
	}
	return b.value(col, off), nil
}

// Scan streams every committed row in order into fn, reusing one row
// buffer. fn must not retain the slice. A non-nil error from fn stops the
// scan and is returned.
func (r *Reader) Scan(fn func(row int64, vals []Value) error) error {
	var buf []Value
	for i := int64(0); i < r.rows; i++ {
		vals, err := r.Row(i, buf)
		if err != nil {
			return err
		}
		buf = vals
		if err := fn(i, vals); err != nil {
			return err
		}
	}
	return nil
}
