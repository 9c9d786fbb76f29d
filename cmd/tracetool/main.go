// Command tracetool inspects the Chrome trace-event JSON files the -trace
// and -flight flags produce (internal/trace): "summarize" prints the
// per-stage span breakdown, per-track utilization, straggler top-K, and
// instant-event counts of one trace; "diff" compares the span totals of
// two traces stage by stage, for before/after comparisons of a change.
//
// Usage:
//
//	tracetool summarize trace.json
//	tracetool diff before.json after.json
//
// The tool consumes its own producer's format only (pinned by the schema
// test in internal/trace) but tolerates the general form: events it does
// not recognize are counted, never rejected.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tracetool summarize FILE | tracetool diff A B")
	}
	switch args[0] {
	case "summarize":
		if len(args) != 2 {
			return fmt.Errorf("usage: tracetool summarize FILE")
		}
		doc, err := load(args[1])
		if err != nil {
			return err
		}
		return summarize(out, doc)
	case "diff":
		if len(args) != 3 {
			return fmt.Errorf("usage: tracetool diff A B")
		}
		a, err := load(args[1])
		if err != nil {
			return err
		}
		b, err := load(args[2])
		if err != nil {
			return err
		}
		return diff(out, args[1], args[2], a, b)
	default:
		return fmt.Errorf("unknown subcommand %q (have: summarize, diff)", args[0])
	}
}

// event is one Chrome trace event; ts and dur are microseconds.
type event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		V    int64  `json:"v"`
		Name string `json:"name"` // thread_name metadata payload
	} `json:"args"`
}

type traceDoc struct {
	OtherData map[string]string `json:"otherData"`
	Events    []event           `json:"traceEvents"`
}

// errBadTrace reports input that does not decode as a trace document.
var errBadTrace = errors.New("tracetool: malformed trace")

func load(path string) (*traceDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// parse decodes a trace document, wrapping any decoding failure in
// errBadTrace.
func parse(data []byte) (*traceDoc, error) {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadTrace, err)
	}
	return &doc, nil
}

// spanAgg accumulates one span name's statistics (microseconds).
type spanAgg struct {
	count               int
	total, minDur, maxD float64
}

func (a *spanAgg) add(dur float64) {
	if a.count == 0 || dur < a.minDur {
		a.minDur = dur
	}
	if dur > a.maxD {
		a.maxD = dur
	}
	a.count++
	a.total += dur
}

// aggregate folds a trace into per-name span stats and per-name instant
// counts.
func aggregate(doc *traceDoc) (spans map[string]*spanAgg, instants map[string]int) {
	spans = make(map[string]*spanAgg)
	instants = make(map[string]int)
	for _, e := range doc.Events {
		switch e.Ph {
		case "X":
			agg := spans[e.Name]
			if agg == nil {
				agg = &spanAgg{}
				spans[e.Name] = agg
			}
			agg.add(e.Dur)
		case "i":
			instants[e.Name]++
		}
	}
	return spans, instants
}

// ms renders a microsecond quantity in milliseconds.
func ms(us float64) string { return fmt.Sprintf("%.3fms", us/1e3) }

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func summarize(out io.Writer, doc *traceDoc) error {
	for _, k := range sortedNames(doc.OtherData) {
		fmt.Fprintf(out, "%-12s %s\n", k+":", doc.OtherData[k])
	}

	spans, instants := aggregate(doc)

	// Per-stage breakdown, heaviest total first.
	names := sortedNames(spans)
	sort.SliceStable(names, func(i, j int) bool { return spans[names[i]].total > spans[names[j]].total })
	fmt.Fprintf(out, "\nspans (%d names):\n", len(names))
	fmt.Fprintf(out, "  %-36s %8s %12s %12s %12s %12s\n", "name", "count", "total", "mean", "min", "max")
	for _, n := range names {
		a := spans[n]
		fmt.Fprintf(out, "  %-36s %8d %12s %12s %12s %12s\n",
			n, a.count, ms(a.total), ms(a.total/float64(a.count)), ms(a.minDur), ms(a.maxD))
	}

	// Per-track utilization: busy = union of the track's span intervals
	// (nested spans — a replica inside its worker's lifecycle span — count
	// once), extent = first event start to last span end.
	type span struct{ s, e float64 }
	type trackAgg struct {
		events     int
		spans      []span
		start, end float64
	}
	trackName := map[int]string{}
	tracks := map[int]*trackAgg{}
	for _, e := range doc.Events {
		if e.Ph == "M" {
			if e.Name == "thread_name" {
				trackName[e.Tid] = e.Args.Name
			}
			continue
		}
		tr := tracks[e.Tid]
		if tr == nil {
			tr = &trackAgg{start: math.Inf(1)}
			tracks[e.Tid] = tr
		}
		tr.events++
		tr.start = math.Min(tr.start, e.TS)
		tr.end = math.Max(tr.end, e.TS+e.Dur)
		if e.Ph == "X" {
			tr.spans = append(tr.spans, span{e.TS, e.TS + e.Dur})
		}
	}
	busyUnion := func(spans []span) float64 {
		sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		var busy, hi float64
		hi = math.Inf(-1)
		for _, sp := range spans {
			if sp.s > hi {
				busy += sp.e - sp.s
				hi = sp.e
			} else if sp.e > hi {
				busy += sp.e - hi
				hi = sp.e
			}
		}
		return busy
	}
	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	fmt.Fprintf(out, "\ntracks (%d):\n", len(tids))
	fmt.Fprintf(out, "  %-20s %8s %12s %12s %6s\n", "track", "events", "busy", "extent", "util")
	for _, tid := range tids {
		tr := tracks[tid]
		name := trackName[tid]
		if name == "" {
			name = fmt.Sprintf("tid%d", tid)
		}
		busy := busyUnion(tr.spans)
		extent := tr.end - tr.start
		util := 0.0
		if extent > 0 {
			util = 100 * busy / extent
		}
		fmt.Fprintf(out, "  %-20s %8d %12s %12s %5.1f%%\n", name, tr.events, ms(busy), ms(extent), util)
	}

	// Straggler top-K: the longest replica busy spans, with their replica
	// index (the span argument) and track.
	const topK = 5
	var replicas []event
	for _, e := range doc.Events {
		if e.Ph == "X" && e.Name == "replica" {
			replicas = append(replicas, e)
		}
	}
	sort.SliceStable(replicas, func(i, j int) bool { return replicas[i].Dur > replicas[j].Dur })
	if len(replicas) > 0 {
		fmt.Fprintf(out, "\nstragglers (top %d of %d replica spans):\n", min(topK, len(replicas)), len(replicas))
		for i, e := range replicas {
			if i >= topK {
				break
			}
			name := trackName[e.Tid]
			if name == "" {
				name = fmt.Sprintf("tid%d", e.Tid)
			}
			fmt.Fprintf(out, "  %12s  replica %-6d %s\n", ms(e.Dur), e.Args.V, name)
		}
	}

	if len(instants) > 0 {
		fmt.Fprintf(out, "\ninstants:\n")
		for _, n := range sortedNames(instants) {
			fmt.Fprintf(out, "  %-36s %8d\n", n, instants[n])
		}
	}
	return nil
}

func diff(out io.Writer, pathA, pathB string, a, b *traceDoc) error {
	spansA, instA := aggregate(a)
	spansB, instB := aggregate(b)
	fmt.Fprintf(out, "A: %s\nB: %s\n", pathA, pathB)

	names := map[string]bool{}
	for n := range spansA {
		names[n] = true
	}
	for n := range spansB {
		names[n] = true
	}
	fmt.Fprintf(out, "\nspans:\n")
	fmt.Fprintf(out, "  %-36s %8s %8s %12s %12s %8s\n", "name", "countA", "countB", "totalA", "totalB", "delta")
	for _, n := range sortedNames(names) {
		var ca, cb int
		var ta, tb float64
		if s := spansA[n]; s != nil {
			ca, ta = s.count, s.total
		}
		if s := spansB[n]; s != nil {
			cb, tb = s.count, s.total
		}
		delta := "n/a"
		if ta > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(tb-ta)/ta)
		}
		fmt.Fprintf(out, "  %-36s %8d %8d %12s %12s %8s\n", n, ca, cb, ms(ta), ms(tb), delta)
	}

	all := map[string]bool{}
	for n := range instA {
		all[n] = true
	}
	for n := range instB {
		all[n] = true
	}
	if len(all) > 0 {
		fmt.Fprintf(out, "\ninstants:\n")
		fmt.Fprintf(out, "  %-36s %8s %8s\n", "name", "countA", "countB")
		for _, n := range sortedNames(all) {
			fmt.Fprintf(out, "  %-36s %8d %8d\n", n, instA[n], instB[n])
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
