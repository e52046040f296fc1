package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Pool is a bounded worker pool shared by every level of the experiment
// scheduler: RunAll fans out across experiments, and each experiment fans
// out across its repetitions (or DIMMs, or workloads) through the same
// pool, so total concurrent measurement work never exceeds the pool width.
//
// Determinism does not depend on scheduling: every task writes only into
// its own index-addressed slot, and all per-task RNG seeds derive from the
// task index (see RepSeed), so a width-1 pool, a width-N pool, and a nil
// pool (inline execution) produce bit-for-bit identical results.
//
// To stay deadlock-free, Pool methods must not be nested: code running
// inside a Map task must not call back into the pool.
// Orchestration code (booting hypervisors, aggregating samples) runs
// outside the pool; only leaf measurement work occupies slots.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool of the given width; width <= 0 means GOMAXPROCS.
func NewPool(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, width)}
}

// Width returns the pool's worker bound (0 for a nil, inline pool).
func (p *Pool) Width() int {
	if p == nil {
		return 0
	}
	return cap(p.sem)
}

func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }

// Map runs fn(0)..fn(n-1), each under a worker slot, and returns the
// lowest-index error. fn must write results only into slot i of a
// caller-owned slice — collection is by index, never by arrival — which is
// what makes parallel and serial runs bit-for-bit identical. A canceled
// ctx stops launching new tasks; in-flight tasks are awaited.
func (p *Pool) Map(ctx context.Context, n int, fn func(i int) error) error {
	if p == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := p.acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.release()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// repSeedSalt decorrelates per-rep RNG streams: rep i of an experiment
// seeded S draws from rand.NewSource(S + i*repSeedSalt), so every rep is
// an independent, reproducible stream regardless of which worker runs it
// or in what order.
const repSeedSalt = 7919

// RepSeed derives repetition i's RNG seed from a base seed. It is exported
// for the command that fans its own repetitions (siloz blacksmith) and
// must match the scheduler's scheme.
func RepSeed(base int64, rep int) int64 { return base + int64(rep)*repSeedSalt }

// RunAll executes the jobs on pool (allocating a GOMAXPROCS pool if it is
// nil), fanning out across experiments and, inside each, across
// repetitions. Results are collected by input index; if onDone is non-nil
// it is called in input order — result i is delivered only after results
// 0..i-1 — with the experiment's wall time, so callers can stream output
// whose bytes do not depend on scheduling.
//
// The first failure (by input order) cancels the remaining work and is
// returned; results completed before the failure are still returned.
func RunAll(ctx context.Context, jobs []Job, pool *Pool, onDone func(r *Result, elapsed time.Duration)) ([]*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if pool == nil {
		pool = NewPool(0)
	}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	elapsed := make([]time.Duration, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i, j := range jobs {
		go func(i int, j Job) {
			defer close(done[i])
			start := time.Now()
			results[i], errs[i] = j.Run(ctx, pool, j.Params)
			elapsed[i] = time.Since(start)
			if errs[i] != nil {
				cancel() // abort the rest; first in-order error wins below
			}
		}(i, j)
	}
	var firstErr error
	for i := range jobs {
		<-done[i]
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", jobs[i].Name, errs[i])
			}
			continue
		}
		if firstErr == nil && onDone != nil {
			onDone(results[i], elapsed[i])
		}
	}
	return results, firstErr
}
