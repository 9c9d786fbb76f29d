package main

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// FuzzParsePredicates: a -where clause parses to a predicate on a real
// column of the record schema, or fails with errBadPredicate; it never
// panics, and an accepted predicate matches a row without panicking.
func FuzzParsePredicates(f *testing.F) {
	for _, s := range []string{
		"field=value", "v>=6", "replica!=0", " t < 1e3 ", "v<=-2", "kind!=record",
		"kind<x", "nope=1", "v>=", "=1", "v", "", "v=nan", "v==1", "replica>inf", "name=a=b",
	} {
		f.Add(s)
	}
	sch := engine.RecordStoreSchema()
	row := make([]store.Value, len(sch.Cols))
	for i, c := range sch.Cols {
		switch c.Type {
		case store.Float64:
			row[i] = store.F(1)
		case store.Int64:
			row[i] = store.I(1)
		default:
			row[i] = store.S("x")
		}
	}
	f.Fuzz(func(t *testing.T, clause string) {
		preds, err := parsePredicates([]string{clause}, sch)
		if err != nil {
			if !errors.Is(err, errBadPredicate) {
				t.Fatalf("parsePredicates(%q) = %v, want errBadPredicate", clause, err)
			}
			return
		}
		if len(preds) != 1 {
			t.Fatalf("parsePredicates(%q) returned %d predicates", clause, len(preds))
		}
		p := preds[0]
		if p.col < 0 || p.col >= len(sch.Cols) || sch.Cols[p.col].Type != p.typ {
			t.Fatalf("parsePredicates(%q) indexes column %d (%v) of %v", clause, p.col, p.typ, sch.Cols)
		}
		p.match(row)
	})
}
