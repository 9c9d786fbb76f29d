package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/rng"
)

// runPool fans the replicas across the job's worker pool and returns the
// structured records indexed by replica. On any replica error the remaining
// work is cancelled and a real backend failure is reported in preference to
// the cancellations it spread; with several independently failing replicas
// the one reported may vary with scheduling (successful runs stay
// bit-for-bit deterministic — only the error path is schedule-dependent).
//
// Every worker runs the same body over an index iterator. A one-worker pool
// calls it inline over the replica indices, with no goroutines or channels;
// a larger pool runs it on one goroutine per worker, fed over a channel.
// The serial iterator stops after a failed replica, the parallel feeder
// once the pool context is cancelled, so a failing job launches no further
// replicas. Instrumentation goes through
// the job's probe (instrument.go), which never touches records, streams, or
// sinks, so it cannot perturb the deterministic outputs.
func runPool(ctx context.Context, job Job, streams []*rng.RNG) ([]Record, error) {
	n := len(streams)
	workers := job.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}

	records := make([]Record, n)
	errs := make([]error, n)
	pr := newProbe(ctx, n, workers)

	var (
		progress sync.Mutex
		done     int
		cancel   context.CancelFunc // cancels a parallel pool's context
	)
	// work is the one worker body: worker w runs the replicas next hands
	// out under ctx.
	work := func(ctx context.Context, w int, next func() (int, bool)) {
		wk := pr.worker(w)
		ctx = wk.mark(ctx)
		for i, ok := next(); ok; i, ok = next() {
			t0 := wk.start(i)
			if err := ctx.Err(); err != nil {
				errs[i] = err
			} else if rec, err := job.Backend.RunReplica(ctx, i, streams[i]); err != nil {
				errs[i] = fmt.Errorf("engine: job %q replica %d: %w", job.Name, i, err)
			} else {
				records[i] = rec
			}
			wk.end(i, t0, errs[i])
			if errs[i] != nil {
				// Stop handing out work: the serial iterator sees the
				// error; a parallel pool is cancelled, and its running
				// replicas observe that through their context.
				if cancel != nil {
					cancel()
				}
				continue
			}
			if job.Progress != nil {
				progress.Lock()
				done++
				job.Progress(done, n)
				progress.Unlock()
			}
		}
		wk.finish()
	}

	if workers == 1 {
		i := 0
		work(ctx, 0, func() (int, bool) {
			if i == n || (i > 0 && errs[i-1] != nil) {
				return 0, false
			}
			i++
			return i - 1, true
		})
	} else {
		var poolCtx context.Context
		poolCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(poolCtx, w, func() (int, bool) {
					i, ok := <-indices
					return i, ok
				})
			}(w)
		}
	feed:
		for i := range streams {
			pr.send(i)
			select {
			case indices <- i:
			case <-poolCtx.Done():
				break feed
			}
		}
		close(indices)
		wg.Wait()
	}

	if err := firstError(ctx, errs); err != nil {
		return nil, err
	}
	return records, nil
}

// firstError returns the lowest-replica real failure, skipping the bare
// cancellations an earlier failure (or the caller's cancel) spread to other
// replicas. When every error is a cancellation, the parent context's error
// wins so a user cancel surfaces as such.
func firstError(ctx context.Context, errs []error) error {
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return cancelled
}
