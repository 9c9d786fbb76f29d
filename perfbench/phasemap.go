package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/model"
	"repro/internal/stability"
	"repro/internal/sweep"
)

// phasemapWorkload is phasemap-adaptive: an adaptive grid with the
// Monte-Carlo evaluator runs cold into a cell store; the store is then
// reopened, replayed into a fresh cache, and the grid reruns one depth
// deeper, so the warm pass reads cached cells and evaluates only new ones.
type phasemapWorkload struct {
	in      *phasemapInputs
	workers int
	dir     string

	// Outputs of the last run, for check.
	maps      [2]*sweep.Map
	replayed  int
	mu        sync.Mutex
	evaluated []evaluatedCell
}

// resolutionBand is the relative stability margin, |λ* − λ| / λ, below
// which the Monte-Carlo evaluator (horizon 300, peer cap 200) cannot tell
// the two sides of the boundary apart.
const resolutionBand = 0.25

type evaluatedCell struct {
	params model.Params
	class  string
}

func (w *phasemapWorkload) run(ctx context.Context, log *roundLog) (*roundResult, error) {
	res := newRoundResult()
	path := filepath.Join(w.dir, "cells.store")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	w.evaluated = w.evaluated[:0]
	var ev sweep.Evaluator = &w.in.Evaluator
	record := func(pt sweep.Point, cell sweep.Cell) {
		w.mu.Lock()
		w.evaluated = append(w.evaluated, evaluatedCell{pt.Params, cell.Class})
		w.mu.Unlock()
	}
	pass := func(g sweep.Grid, openName string) (*sweep.Map, int, error) {
		cache := sweep.NewCache()
		sp := log.tr.begin(openName, "store", log.root, -1, 0)
		cs, loaded, err := sweep.OpenCellStore(path, cache)
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		clock := log.pool("sweep.grid", "sweep", "sweep.evaluate", "sim")
		runner := &sweep.Runner{
			Evaluator: &timedEvaluator{Evaluator: ev, clock: clock, onCell: record},
			Workers:   w.workers,
			Cache:     cache,
		}
		m, err := g.Run(ctx, runner)
		clock.done()
		sp = log.tr.begin("store.close", "store", log.root, -1, 0)
		cerr := cs.Close()
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		return m, loaded, cerr
	}
	cold, _, err := pass(w.in.Grid, "store.open")
	if err != nil {
		return nil, err
	}
	deeper := w.in.Grid
	deeper.RefineDepth++
	warm, replayed, err := pass(deeper, "store.replay")
	if err != nil {
		return nil, err
	}
	w.maps = [2]*sweep.Map{cold, warm}
	w.replayed = replayed

	c := res.counts
	var dense int
	for _, m := range w.maps {
		c["sweep.evaluated"] += float64(m.Stats.Evaluated)
		c["sweep.cache_hits"] += float64(m.Stats.CacheHits)
		c["sweep.deduped"] += float64(m.Stats.Deduped)
		c["sweep.rounds"] += float64(m.Stats.Rounds)
		dense += m.Stats.DenseCells
		res.work += float64(m.NX * m.NY)
	}
	c["sweep.adaptive_ratio"] = c["sweep.evaluated"] / float64(dense)
	c["store.cells_replayed"] = float64(replayed)
	return res, nil
}

func (w *phasemapWorkload) check(res *roundResult) error {
	if w.replayed != w.maps[0].Stats.Evaluated {
		return fmt.Errorf("warm pass replayed %d cells, cold pass stored %d", w.replayed, w.maps[0].Stats.Evaluated)
	}
	var buf bytes.Buffer
	for _, m := range w.maps {
		if err := sweep.WriteCSV(&buf, m); err != nil {
			return err
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	res.digest = hex.EncodeToString(sum[:])
	// The reference is the Theorem 1 verdict at each evaluated point:
	// "grows" must mean transient. A finite horizon cannot resolve points
	// near the boundary — slow growth near λ* does not reach the cap, and
	// heavy-traffic populations near λ* can — so points whose margin is
	// within resolutionBand of their arrival rate are not judged.
	for _, e := range w.evaluated {
		a, err := stability.Classify(e.params)
		if err != nil {
			return err
		}
		if a.Verdict == stability.Borderline || math.Abs(a.Margin) < resolutionBand*e.params.LambdaTotal() {
			continue
		}
		res.judged++
		if (e.class == "grows") == (a.Verdict == stability.Transient) {
			res.agree++
		}
	}
	return nil
}
