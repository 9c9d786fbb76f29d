package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// RecordStoreApp tags store files holding engine records, so generic
// tooling (cmd/results) knows to reassemble ReplicaRecord/AggregateRecord
// rows rather than print them raw.
const RecordStoreApp = "p2p-records/1"

// Row encoding: each sink record flattens to a run of rows in one shared
// schema. A "record" row opens the run and carries presence flags; the
// rows after it carry the record's entries, one scalar per row:
//
//	field="record"  header; v = presence bitmask (recFlag*)
//	field="value"   one scalar: name = metric, v = value
//	field="series"  one series header: name, v = len, t = 1 if non-nil
//	field="pt"      one series point: name, t = point.T, v = point.V
//	field="mark"    one event mark: name = metric, v = hitting time
//	field="agg.*"   one aggregate stat: name = metric, v = the stat
//
// Rows appear in the exact order the JSONL sink marshals them (replica
// order, sorted keys), and floats are stored as raw bits, so decoding
// reproduces the JSONL byte stream exactly — the round-trip property
// TestStoreSinkRoundTripsJSONL pins.
const (
	fieldRecord = "record"
	fieldValue  = "value"
	fieldSeries = "series"
	fieldPoint  = "pt"
	fieldMark   = "mark"
	aggPrefix   = "agg."
)

const (
	recFlagValues = 1 << iota
	recFlagSeries
	recFlagMarks
)

// aggStats are the aggregate row kinds, in emission order; each becomes
// one field "agg.<stat>" row.
var aggStats = []string{"n", "mean", "std", "ci95", "min", "max"}

// RecordStoreSchema returns the column layout StoreSink writes.
func RecordStoreSchema() store.Schema {
	return store.Schema{
		App: RecordStoreApp,
		Cols: []store.Column{
			{Name: "kind", Type: store.String},
			{Name: "job", Type: store.String},
			{Name: "backend", Type: store.String},
			{Name: "replica", Type: store.Int64},
			{Name: "field", Type: store.String},
			{Name: "name", Type: store.String},
			{Name: "t", Type: store.Float64},
			{Name: "v", Type: store.Float64},
		},
	}
}

// StoreSink writes job results into the columnar result store — the
// at-scale sibling of JSONLSink, carrying identical information (the
// JSONL stream is recoverable byte-for-byte via StoreToJSONL). Like
// JSONLSink it serializes writes, so sequential jobs may share one.
// Close commits the footer; without it the file is still recoverable up
// to the last completed record batch.
type StoreSink struct {
	mu  sync.Mutex
	w   *store.Writer
	row []store.Value
}

// NewStoreSink starts a record store on w. The caller keeps ownership of
// w; Close writes the store footer but does not close w.
func NewStoreSink(w io.Writer) (*StoreSink, error) {
	sw, err := store.NewWriter(w, RecordStoreSchema(), store.WriterOptions{})
	if err != nil {
		return nil, fmt.Errorf("engine: store sink: %w", err)
	}
	return &StoreSink{w: sw, row: make([]store.Value, 8)}, nil
}

// CreateStoreSink starts a record store file at path; Close closes it.
func CreateStoreSink(path string) (*StoreSink, error) {
	sw, err := store.Create(path, RecordStoreSchema(), store.WriterOptions{})
	if err != nil {
		return nil, fmt.Errorf("engine: store sink: %w", err)
	}
	return &StoreSink{w: sw, row: make([]store.Value, 8)}, nil
}

// Close flushes buffered rows and writes the store footer.
func (s *StoreSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}

// put appends one row; the fixed record columns are set by the caller.
func (s *StoreSink) put(field, name string, t, v float64) error {
	s.row[4] = store.S(field)
	s.row[5] = store.S(name)
	s.row[6] = store.F(t)
	s.row[7] = store.F(v)
	return s.w.Append(s.row)
}

func (s *StoreSink) setRecordCols(kind, job, backend string, replica int64) {
	s.row[0] = store.S(kind)
	s.row[1] = store.S(job)
	s.row[2] = store.S(backend)
	s.row[3] = store.I(replica)
}

// WriteReplica implements Sink.
func (s *StoreSink) WriteReplica(rec ReplicaRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setRecordCols(rec.Kind, rec.Job, rec.Backend, int64(rec.Replica))
	flags := 0.0
	if rec.Values != nil {
		flags += recFlagValues
	}
	if rec.Series != nil {
		flags += recFlagSeries
	}
	if rec.Marks != nil {
		flags += recFlagMarks
	}
	if err := s.put(fieldRecord, "", 0, flags); err != nil {
		return err
	}
	for _, k := range sortedKeys(rec.Values) {
		if err := s.put(fieldValue, k, 0, rec.Values[k]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(rec.Series) {
		pts := rec.Series[name]
		nonNil := 0.0
		if pts != nil {
			nonNil = 1
		}
		if err := s.put(fieldSeries, name, nonNil, float64(len(pts))); err != nil {
			return err
		}
		for _, p := range pts {
			if err := s.put(fieldPoint, name, p.T, p.V); err != nil {
				return err
			}
		}
	}
	for _, k := range sortedKeys(rec.Marks) {
		if err := s.put(fieldMark, k, 0, rec.Marks[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteAggregate implements Sink.
func (s *StoreSink) WriteAggregate(rec AggregateRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setRecordCols(rec.Kind, rec.Job, rec.Backend, int64(rec.Replicas))
	flags := 0.0
	if rec.Metrics != nil {
		flags += recFlagValues
	}
	if err := s.put(fieldRecord, "", 0, flags); err != nil {
		return err
	}
	for _, k := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[k]
		for _, stat := range aggStats {
			var v float64
			switch stat {
			case "n":
				v = float64(m.N)
			case "mean":
				v = m.Mean
			case "std":
				v = m.Std
			case "ci95":
				v = m.CI95
			case "min":
				v = m.Min
			case "max":
				v = m.Max
			}
			if err := s.put(aggPrefix+stat, k, 0, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tee fans sink writes out to several sinks in order (e.g. JSONL and the
// columnar store from one run), failing on the first error.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) WriteReplica(rec ReplicaRecord) error {
	for _, s := range t {
		if err := s.WriteReplica(rec); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) WriteAggregate(rec AggregateRecord) error {
	for _, s := range t {
		if err := s.WriteAggregate(rec); err != nil {
			return err
		}
	}
	return nil
}

// storeRecord is the decode-side accumulator for one record's row run.
type storeRecord struct {
	kind, job, backend string
	replica            int64
	flags              int
	values             Sample
	series             map[string][]obs.Point
	marks              map[string]float64
	aggs               map[string]MetricAggregate
	started            bool
}

// emit marshals the accumulated record as one JSONL line, exactly as the
// JSONL sink would have.
func (sr *storeRecord) emit(enc *json.Encoder) error {
	if !sr.started {
		return nil
	}
	if sr.kind == "aggregate" {
		rec := AggregateRecord{Kind: sr.kind, Job: sr.job, Backend: sr.backend, Replicas: int(sr.replica)}
		if sr.flags&recFlagValues != 0 {
			rec.Metrics = sr.aggs
			if rec.Metrics == nil {
				rec.Metrics = map[string]MetricAggregate{}
			}
		}
		return enc.Encode(rec)
	}
	rec := ReplicaRecord{
		Kind: sr.kind, Job: sr.job, Backend: sr.backend, Replica: int(sr.replica),
		Series: sr.series, Marks: sr.marks,
	}
	if sr.flags&recFlagValues != 0 {
		rec.Values = sr.values
		if rec.Values == nil {
			rec.Values = Sample{}
		}
	}
	return enc.Encode(rec)
}

// StoreToJSONL streams a record store back out as the byte-identical
// JSONL the same run's JSONLSink would have produced. The reader must
// hold a store written by StoreSink (ErrSchema from the store layer
// otherwise).
func StoreToJSONL(w io.Writer, r *store.Reader) error {
	if r.Schema().App != RecordStoreApp {
		return fmt.Errorf("engine: store app %q is not %q", r.Schema().App, RecordStoreApp)
	}
	if !r.Schema().Equal(RecordStoreSchema()) {
		return fmt.Errorf("engine: store schema does not match the record layout")
	}
	enc := json.NewEncoder(w)
	var cur storeRecord
	err := r.Scan(func(i int64, vals []store.Value) error {
		kind, job, backend := vals[0].String(), vals[1].String(), vals[2].String()
		replica := vals[3].Int64()
		field, name := vals[4].String(), vals[5].String()
		t, v := vals[6].Float64(), vals[7].Float64()
		switch field {
		case fieldRecord:
			if err := cur.emit(enc); err != nil {
				return err
			}
			cur = storeRecord{kind: kind, job: job, backend: backend, replica: replica, flags: int(v), started: true}
		case fieldValue:
			if cur.values == nil {
				cur.values = Sample{}
			}
			cur.values[name] = v
		case fieldSeries:
			if cur.series == nil {
				cur.series = map[string][]obs.Point{}
			}
			if t != 0 { // non-nil slice; preallocate its declared length
				cur.series[name] = make([]obs.Point, 0, int(v))
			} else {
				cur.series[name] = nil
			}
		case fieldPoint:
			if cur.series == nil {
				return fmt.Errorf("engine: store row %d: point before series header", i)
			}
			cur.series[name] = append(cur.series[name], obs.Point{T: t, V: v})
		case fieldMark:
			if cur.marks == nil {
				cur.marks = map[string]float64{}
			}
			cur.marks[name] = v
		default:
			stat, ok := cutAggStat(field)
			if !ok {
				return fmt.Errorf("engine: store row %d: unknown field %q", i, field)
			}
			if cur.aggs == nil {
				cur.aggs = map[string]MetricAggregate{}
			}
			m := cur.aggs[name]
			switch stat {
			case "n":
				m.N = int(v)
			case "mean":
				m.Mean = v
			case "std":
				m.Std = v
			case "ci95":
				m.CI95 = v
			case "min":
				m.Min = v
			case "max":
				m.Max = v
			}
			cur.aggs[name] = m
		}
		return nil
	})
	if err != nil {
		return err
	}
	return cur.emit(enc)
}

// cutAggStat splits an "agg.<stat>" field, validating the stat name.
func cutAggStat(field string) (string, bool) {
	if len(field) <= len(aggPrefix) || field[:len(aggPrefix)] != aggPrefix {
		return "", false
	}
	stat := field[len(aggPrefix):]
	switch stat {
	case "n", "mean", "std", "ci95", "min", "max":
		return stat, true
	}
	return "", false
}
