package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// roundLog collects the task timings of one round across all its pool
// runs. It is the benchmark's outside view of the engine: busy time is the
// sum of the task spans, pool wall the sum of the pool runs, so idle time
// never double-counts work that a task runs on nested pools of its own.
type roundLog struct {
	tr      *tracer
	root    int32 // the round span, parent of the pool runs
	workers int

	mu       sync.Mutex
	tasks    []time.Duration // every task's duration
	waits    []time.Duration // idle gap of the lane before each task
	busy     time.Duration
	poolWall time.Duration
	tail     time.Duration // last task end to pool-run return, summed
}

// task is one running task: an engine replica or a sweep cell.
type task struct {
	id    int
	lane  int // 1-based worker lane; lane 0 is the orchestrating goroutine
	start time.Time
	span  openSpan
	clock *taskClock
}

// child opens a span nested in the task.
func (t *task) child(name, layer string) openSpan {
	return t.clock.log.tr.begin(name, layer, t.span.id(), t.id, t.lane)
}

// childFrom opens a nested span that started at an earlier instant.
func (t *task) childFrom(at time.Time, name, layer string) openSpan {
	return t.clock.log.tr.beginAt(at, name, layer, t.span.id(), t.id, t.lane)
}

// taskClock times the tasks of one pool run. Tasks take the lowest free
// worker lane; a lane's wait before a task is the gap since its previous
// task ended (or since the pool run started).
type taskClock struct {
	log        *roundLog
	name       string
	layer      string
	start      time.Time
	poolSpan   openSpan
	mu         sync.Mutex
	laneEnd    []time.Time
	laneBusy   []bool
	lastEnd    time.Time
	byID       map[int]*task
	nextTaskID int
}

// pool opens a pool run: the span of the call that runs the tasks
// (engine.Run, sweep.Grid.Run, sweep.Runner.Points). taskName/taskLayer
// label the task spans.
func (l *roundLog) pool(name, layer, taskName, taskLayer string) *taskClock {
	now := time.Now()
	c := &taskClock{
		log: l, name: taskName, layer: taskLayer, start: now,
		poolSpan: l.tr.beginAt(now, name, layer, l.root, -1, 0),
		laneEnd:  make([]time.Time, l.workers),
		laneBusy: make([]bool, l.workers),
		byID:     map[int]*task{},
	}
	for i := range c.laneEnd {
		c.laneEnd[i] = now
	}
	return c
}

// done closes the pool run, adding its wall and tail to the round.
func (c *taskClock) done() {
	now := time.Now()
	c.poolSpan.endAt(now)
	c.mu.Lock()
	last := c.lastEnd
	c.mu.Unlock()
	l := c.log
	l.mu.Lock()
	l.poolWall += now.Sub(c.start)
	if !last.IsZero() {
		l.tail += now.Sub(last)
	}
	l.mu.Unlock()
}

// begin starts task id (-1 assigns the next sequential id).
func (c *taskClock) begin(id int) *task {
	now := time.Now()
	c.mu.Lock()
	if id < 0 {
		id = c.nextTaskID
		c.nextTaskID++
	}
	lane := 0
	for lane < len(c.laneBusy)-1 && c.laneBusy[lane] {
		lane++
	}
	c.laneBusy[lane] = true
	wait := now.Sub(c.laneEnd[lane])
	t := &task{id: id, lane: lane + 1, start: now, clock: c}
	t.span = c.log.tr.beginAt(now, c.name, c.layer, c.poolSpan.id(), id, t.lane)
	c.byID[id] = t
	c.mu.Unlock()
	c.log.mu.Lock()
	c.log.waits = append(c.log.waits, wait)
	c.log.mu.Unlock()
	return t
}

// lookup returns the running task with the given id.
func (c *taskClock) lookup(id int) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byID[id]
}

// end finishes the task.
func (c *taskClock) end(t *task) {
	now := time.Now()
	t.span.endAt(now)
	d := now.Sub(t.start)
	c.mu.Lock()
	c.laneBusy[t.lane-1] = false
	c.laneEnd[t.lane-1] = now
	if now.After(c.lastEnd) {
		c.lastEnd = now
	}
	delete(c.byID, t.id)
	c.mu.Unlock()
	l := c.log
	l.mu.Lock()
	l.tasks = append(l.tasks, d)
	l.busy += d
	l.mu.Unlock()
}

type taskKey struct{}

// taskFrom returns the task a context belongs to (nil outside tasks).
func taskFrom(ctx context.Context) *task {
	t, _ := ctx.Value(taskKey{}).(*task)
	return t
}

// timedBackend wraps an engine.Backend: each replica is one task.
type timedBackend struct {
	engine.Backend
	clock *taskClock
}

// RunReplica implements engine.Backend.
func (b timedBackend) RunReplica(ctx context.Context, rep int, r *rng.RNG) (engine.Record, error) {
	t := b.clock.begin(rep)
	defer b.clock.end(t)
	return b.Backend.RunReplica(context.WithValue(ctx, taskKey{}, t), rep, r)
}

// timedEvaluator wraps a sweep.Evaluator: each Evaluate call is one task.
// Name and Fingerprint pass through, so cache keys are unchanged.
// onCell, when set, receives every evaluated cell (outside the task span).
type timedEvaluator struct {
	sweep.Evaluator
	clock  *taskClock
	onCell func(sweep.Point, sweep.Cell)
}

// Evaluate implements sweep.Evaluator.
func (e *timedEvaluator) Evaluate(ctx context.Context, pt sweep.Point, r *rng.RNG) (sweep.Cell, error) {
	t := e.clock.begin(-1)
	cell, err := e.Evaluator.Evaluate(context.WithValue(ctx, taskKey{}, t), pt, r)
	e.clock.end(t)
	if err == nil && e.onCell != nil {
		e.onCell(pt, cell)
	}
	return cell, err
}

// timedSink wraps an engine.Sink: each write is one span in the layer the
// sink belongs to, parented by the pool run that emits it.
type timedSink struct {
	inner  engine.Sink
	layer  string
	name   string
	parent func() int32
	tr     *tracer
}

func (s timedSink) timed(fn func() error) error {
	sp := s.tr.begin(s.name, s.layer, s.parent(), -1, 0)
	defer sp.end()
	return fn()
}

// WriteReplica implements engine.Sink.
func (s timedSink) WriteReplica(rec engine.ReplicaRecord) error {
	return s.timed(func() error { return s.inner.WriteReplica(rec) })
}

// WriteAggregate implements engine.Sink.
func (s timedSink) WriteAggregate(rec engine.AggregateRecord) error {
	return s.timed(func() error { return s.inner.WriteAggregate(rec) })
}
