package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call boundary. Layer is a module name ("engine", "sim", …), or
// empty for the benchmark's own bookkeeping (the round itself).
type span struct {
	ID, Parent int32
	Name       string
	Layer      string
	Task       int
	Lane       int // worker lane, the Chrome trace thread
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns a zero handle and end records nothing.
type tracer struct {
	origin time.Time
	nextID atomic.Int32
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span whose end is not yet known.
type openSpan struct {
	t *tracer
	s span
}

// id returns the span's identifier (0 when untraced), for use as a parent.
func (o openSpan) id() int32 { return o.s.ID }

// begin opens a span now.
func (t *tracer) begin(name, layer string, parent int32, task, lane int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.beginAt(time.Now(), name, layer, parent, task, lane)
}

// beginAt opens a span that started at an earlier instant.
func (t *tracer) beginAt(at time.Time, name, layer string, parent int32, task, lane int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Name: name, Layer: layer,
		Task: task, Lane: lane, Start: at.Sub(t.origin),
	}}
}

// end closes the span now and keeps it.
func (o openSpan) end() { o.endAt(time.Now()) }

// endAt closes the span at the given instant and keeps it.
func (o openSpan) endAt(at time.Time) {
	if o.t == nil {
		return
	}
	o.s.End = at.Sub(o.t.origin)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the spans recorded so far, in ID order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by the intervals, counting
// overlapping parts once.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([]interval(nil), iv...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	var total time.Duration
	cur := sorted[0]
	for _, x := range sorted[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// clip restricts an interval to [lo, hi]; empty results have lo == hi.
func clip(x interval, lo, hi time.Duration) interval {
	if x.lo < lo {
		x.lo = lo
	}
	if x.hi > hi {
		x.hi = hi
	}
	if x.hi < x.lo {
		x.hi = x.lo
	}
	return x
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of it that its child spans cover (children that overlap
// each other count once), summed by layer. Spans without a layer are
// skipped.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Layer == "" {
			continue
		}
		kids := children[s.ID]
		clipped := make([]interval, len(kids))
		for i, k := range kids {
			clipped[i] = clip(k, s.Start, s.End)
		}
		out[s.Layer] += s.dur() - unionLen(clipped)
	}
	return out
}

// coverage returns the share of the given windows that layer spans cover.
func coverage(spans []span, windows []interval) float64 {
	var covered, total time.Duration
	for _, w := range windows {
		var in []interval
		for _, s := range spans {
			if s.Layer != "" {
				in = append(in, clip(interval{s.Start, s.End}, w.lo, w.hi))
			}
		}
		covered += unionLen(in)
		total += w.hi - w.lo
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// chromeEvent is one Chrome trace-event record, the format cmd/tracetool
// summarize reads: complete events (ph "X") with microsecond ts and dur.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON document. Each
// worker lane becomes one thread; args carry the task id (as "v", the
// field tracetool reads), the span id and its parent.
func writeChrome(path string, spans []span, meta map[string]string) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]chromeEvent, 0, len(spans)+8)
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Lane,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", s.Lane)},
			})
		}
		cat := s.Layer
		if cat == "" {
			cat = "bench"
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Pid: 1, Tid: s.Lane,
			TS: us(s.Start), Dur: us(s.dur()),
			Args: map[string]any{"v": s.Task, "id": s.ID, "parent": s.Parent},
		})
	}
	doc := struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
		TraceEvents     []chromeEvent     `json:"traceEvents"`
	}{"ms", meta, events}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
