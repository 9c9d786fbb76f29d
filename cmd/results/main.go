// Command results inspects and queries columnar result stores
// (internal/store) — the .store files the -store flags of p2psim,
// experiments, and phasemap produce: "ls" prints each file's manifest
// (app, version, rows, blocks, clean or torn), "cat" pages rows through
// the O(1) row index, "filter" scans with column predicates, "agg"
// folds a numeric column into Welford summaries per group, and "export"
// streams a store back out as JSONL — byte-identical to the JSONL the
// same run would have written directly, for engine record and sweep
// cell stores — or as CSV.
//
// Usage:
//
//	results ls FILE...
//	results cat [-offset N] [-limit N] [-recover] FILE
//	results filter [-where 'COL OP VALUE']... [-limit N] [-recover] FILE
//	results agg -col COL [-by COL] [-recover] FILE
//	results export [-format jsonl|csv] [-o FILE] [-recover] FILE
//
// Predicates compare numerically (=, !=, <, <=, >, >=) on float64/int64
// columns and literally (=, !=) on string columns; repeated -where
// flags AND together. -recover salvages every committed block of a torn
// file (a crashed run) instead of failing; "ls" always recovers.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "results:", err)
		os.Exit(1)
	}
}

const usage = "usage: results ls|cat|filter|agg|export [flags] FILE (run a subcommand with -h for its flags)"

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("%s", usage)
	}
	switch args[0] {
	case "ls":
		return runLs(args[1:], out)
	case "cat":
		return runCat(args[1:], out)
	case "filter":
		return runFilter(args[1:], out)
	case "agg":
		return runAgg(args[1:], out)
	case "export":
		return runExport(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
	}
}

// openStore opens one store file, salvaging torn files when recover is
// set.
func openStore(path string, recover bool) (*store.Reader, error) {
	if recover {
		return store.Recover(path)
	}
	r, err := store.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w (a torn file from a crashed run opens with -recover)", err)
	}
	return r, nil
}

// runLs prints a manifest summary per file. Torn files are salvaged and
// flagged, never fatal — ls is the triage tool.
func runLs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("results ls", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: results ls FILE...")
	}
	for _, path := range fs.Args() {
		r, err := store.Recover(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		cols := make([]string, len(r.Schema().Cols))
		for i, c := range r.Schema().Cols {
			cols[i] = fmt.Sprintf("%s:%s", c.Name, c.Type)
		}
		major, minor := r.Version()
		state := "clean"
		if !r.Clean() {
			state = fmt.Sprintf("torn (%d of %d bytes committed)", r.CommittedSize(), r.Size())
		}
		fmt.Fprintf(out, "%s\tapp=%s\tv%d.%d\trows=%d\tblocks=%d\t%s\t[%s]\n",
			path, r.Schema().App, major, minor, r.NumRows(), r.NumBlocks(), state, strings.Join(cols, ", "))
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runCat pages rows out of the row index — random access, so -offset on
// a million-row file touches only the blocks holding the page.
func runCat(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("results cat", flag.ContinueOnError)
	offset := fs.Int64("offset", 0, "first row to print")
	limit := fs.Int64("limit", 20, "rows to print (0 = to the end)")
	recov := fs.Bool("recover", false, "salvage a torn file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: results cat [-offset N] [-limit N] [-recover] FILE")
	}
	r, err := openStore(fs.Arg(0), *recov)
	if err != nil {
		return err
	}
	defer r.Close()
	end := r.NumRows()
	if *limit > 0 && *offset+*limit < end {
		end = *offset + *limit
	}
	writeHeader(out, r.Schema())
	var buf []store.Value
	for i := *offset; i < end; i++ {
		if buf, err = r.Row(i, buf); err != nil {
			return err
		}
		writeRow(out, buf)
	}
	return nil
}

// runFilter scans the store printing rows that satisfy every -where
// predicate.
func runFilter(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("results filter", flag.ContinueOnError)
	var wheres multiFlag
	fs.Var(&wheres, "where", "predicate 'COL OP VALUE' (repeatable, ANDed); OP: = != < <= > >=")
	limit := fs.Int64("limit", 0, "stop after this many matches (0 = all)")
	recov := fs.Bool("recover", false, "salvage a torn file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: results filter [-where 'COL OP VALUE']... [-limit N] [-recover] FILE")
	}
	r, err := openStore(fs.Arg(0), *recov)
	if err != nil {
		return err
	}
	defer r.Close()
	preds, err := parsePredicates(wheres, r.Schema())
	if err != nil {
		return err
	}
	writeHeader(out, r.Schema())
	var matched int64
	errStop := fmt.Errorf("limit reached")
	err = r.Scan(func(i int64, vals []store.Value) error {
		for _, p := range preds {
			if !p.match(vals) {
				return nil
			}
		}
		writeRow(out, vals)
		matched++
		if *limit > 0 && matched >= *limit {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return err
	}
	return nil
}

// runAgg folds a numeric column through internal/dist Welford summaries,
// one per value of the -by column ("" groups everything together).
func runAgg(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("results agg", flag.ContinueOnError)
	col := fs.String("col", "", "numeric column to aggregate (required)")
	by := fs.String("by", "", "string column to group by (optional)")
	recov := fs.Bool("recover", false, "salvage a torn file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *col == "" {
		return fmt.Errorf("usage: results agg -col COL [-by COL] [-recover] FILE")
	}
	r, err := openStore(fs.Arg(0), *recov)
	if err != nil {
		return err
	}
	defer r.Close()
	sch := r.Schema()
	ci := sch.Col(*col)
	if ci < 0 {
		return fmt.Errorf("no column %q in schema %v", *col, sch.Cols)
	}
	if sch.Cols[ci].Type == store.String {
		return fmt.Errorf("column %q is a string column; -col needs a numeric one", *col)
	}
	bi := -1
	if *by != "" {
		if bi = sch.Col(*by); bi < 0 {
			return fmt.Errorf("no column %q in schema %v", *by, sch.Cols)
		}
	}
	sums := map[string]*dist.Summary{}
	err = r.Scan(func(i int64, vals []store.Value) error {
		group := ""
		if bi >= 0 {
			group = formatValue(vals[bi])
		}
		s, ok := sums[group]
		if !ok {
			s = &dist.Summary{}
			sums[group] = s
		}
		v := vals[ci].Float64()
		if vals[ci].Type() == store.Int64 {
			v = float64(vals[ci].Int64())
		}
		s.Add(v)
		return nil
	})
	if err != nil {
		return err
	}
	groups := make([]string, 0, len(sums))
	for g := range sums {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	fmt.Fprintln(out, "group\tn\tmean\tstd\tci95\tmin\tmax")
	for _, g := range groups {
		s := sums[g]
		fmt.Fprintf(out, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n", g, s.N(),
			fnum(s.Mean()), fnum(s.Std()), fnum(s.CI95()), fnum(s.Min()), fnum(s.Max()))
	}
	return nil
}

// runExport streams the store out as JSONL or CSV. JSONL is app-aware:
// engine record stores and sweep cell stores reassemble into the exact
// byte stream their JSONL sinks would have written (the CI resumability
// diffs rely on this); other apps export one flat object per row.
func runExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("results export", flag.ContinueOnError)
	format := fs.String("format", "jsonl", `output format: "jsonl" or "csv"`)
	outFile := fs.String("o", "", "write to this file instead of stdout")
	recov := fs.Bool("recover", false, "salvage a torn file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: results export [-format jsonl|csv] [-o FILE] [-recover] FILE")
	}
	r, err := openStore(fs.Arg(0), *recov)
	if err != nil {
		return err
	}
	defer r.Close()
	w := out
	var outF *os.File
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		outF = f
		defer outF.Close() // error-path cleanup; the success path checks Close below
		w = f
	}
	switch *format {
	case "jsonl":
		err = exportJSONL(w, r)
	case "csv":
		err = exportCSV(w, r)
	default:
		return fmt.Errorf("unknown -format %q (want jsonl or csv)", *format)
	}
	if err != nil {
		return err
	}
	if outF != nil {
		// A flush failure at close (full disk) must not exit 0 with a
		// truncated export.
		return outF.Close()
	}
	return nil
}

func exportJSONL(w io.Writer, r *store.Reader) error {
	switch r.Schema().App {
	case engine.RecordStoreApp:
		return engine.StoreToJSONL(w, r)
	case sweep.CellStoreApp:
		return sweep.StoreCellsToJSONL(w, r)
	}
	// Generic stores export one object per row, columns in schema order.
	var b strings.Builder
	return r.Scan(func(i int64, vals []store.Value) error {
		b.Reset()
		b.WriteByte('{')
		for ci, c := range r.Schema().Cols {
			if ci > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(c.Name))
			b.WriteByte(':')
			switch vals[ci].Type() {
			case store.String:
				b.WriteString(strconv.Quote(vals[ci].String()))
			default:
				b.WriteString(formatValue(vals[ci]))
			}
		}
		b.WriteString("}\n")
		_, err := io.WriteString(w, b.String())
		return err
	})
}

func exportCSV(w io.Writer, r *store.Reader) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(r.Schema().Cols))
	for i, c := range r.Schema().Cols {
		rec[i] = c.Name
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	err := r.Scan(func(i int64, vals []store.Value) error {
		for ci := range vals {
			rec[ci] = formatValue(vals[ci])
		}
		return cw.Write(rec)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// predicate is one parsed -where clause.
type predicate struct {
	col int
	typ store.Type
	op  string
	f   float64 // numeric comparand
	s   string  // string comparand
}

func (p predicate) match(vals []store.Value) bool {
	if p.typ == store.String {
		eq := vals[p.col].String() == p.s
		return (p.op == "=") == eq
	}
	v := vals[p.col].Float64()
	if p.typ == store.Int64 {
		v = float64(vals[p.col].Int64())
	}
	switch p.op {
	case "=":
		return v == p.f
	case "!=":
		return v != p.f
	case "<":
		return v < p.f
	case "<=":
		return v <= p.f
	case ">":
		return v > p.f
	case ">=":
		return v >= p.f
	}
	return false
}

// errBadPredicate wraps every -where parse failure.
var errBadPredicate = errors.New("bad predicate")

// parsePredicates parses 'COL OP VALUE' clauses against the schema.
// Two-character operators are matched before their one-character
// prefixes so "<=" never parses as "<" with a stray "=" in the value.
func parsePredicates(wheres []string, sch store.Schema) ([]predicate, error) {
	ops := []string{"<=", ">=", "!=", "=", "<", ">"}
	var preds []predicate
	for _, clause := range wheres {
		var op string
		at := -1
		for _, o := range ops {
			if i := strings.Index(clause, o); i > 0 && (at < 0 || i < at) {
				op, at = o, i
			}
		}
		if at < 0 {
			return nil, fmt.Errorf("%w %q (want 'COL OP VALUE')", errBadPredicate, clause)
		}
		name := strings.TrimSpace(clause[:at])
		val := strings.TrimSpace(clause[at+len(op):])
		ci := sch.Col(name)
		if ci < 0 {
			return nil, fmt.Errorf("%w %q: no column %q in schema %v", errBadPredicate, clause, name, sch.Cols)
		}
		p := predicate{col: ci, typ: sch.Cols[ci].Type, op: op}
		if p.typ == store.String {
			if op != "=" && op != "!=" {
				return nil, fmt.Errorf("%w %q: string column %q supports only = and !=", errBadPredicate, clause, name)
			}
			p.s = val
		} else {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("%w %q: %v", errBadPredicate, clause, err)
			}
			p.f = f
		}
		preds = append(preds, p)
	}
	return preds, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func writeHeader(w io.Writer, sch store.Schema) {
	names := make([]string, len(sch.Cols))
	for i, c := range sch.Cols {
		names[i] = c.Name
	}
	fmt.Fprintln(w, strings.Join(names, "\t"))
}

func writeRow(w io.Writer, vals []store.Value) {
	parts := make([]string, len(vals))
	for i := range vals {
		parts[i] = formatValue(vals[i])
	}
	fmt.Fprintln(w, strings.Join(parts, "\t"))
}

// formatValue renders a cell; floats round-trip exactly ('g', -1).
func formatValue(v store.Value) string {
	switch v.Type() {
	case store.Float64:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case store.Int64:
		return strconv.FormatInt(v.Int64(), 10)
	default:
		return v.String()
	}
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
