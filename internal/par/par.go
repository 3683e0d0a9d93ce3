// Package par provides the tiny work-distribution primitive shared by the
// parallel execution engines inside the sz and zfp codecs and the chunked
// container: run n independent items across at most w goroutines. Work is
// handed out through an atomic counter rather than pre-partitioned, so
// uneven item costs (a hard-to-compress slab next to an all-zero one) still
// balance across workers. Lanes and Resize keep the per-worker scratch those
// engines reuse across calls.
package par

import (
	"sync"
	"sync/atomic"
)

// Run invokes fn(i) once for every i in [0,n), fanning the calls across at
// most workers goroutines. fn must be safe for concurrent use when workers
// exceeds 1. With workers <= 1 (or a single item) every call runs on the
// calling goroutine, so serial paths pay no scheduling or allocation cost.
// Run returns only after every call has completed.
func Run(n, workers int, fn func(i int)) {
	RunWorker(n, workers, func(_, i int) { fn(i) })
}

// RunWorker is Run, but fn additionally receives the stable index (in
// [0,workers)) of the goroutine making the call, so callers can keep
// per-worker state — reusable codec handles, scratch buffers — without
// locking. On the serial path the worker index is always 0.
func RunWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Lanes is a per-worker table of lazily created state, indexed by the worker
// index RunWorker passes. Each index is owned by one goroutine during a run,
// so Lane needs no locking.
type Lanes[T any] []*T

// Lane returns worker w's element, creating it on first use.
func (l Lanes[T]) Lane(w int) *T {
	if l[w] == nil {
		l[w] = new(T)
	}
	return l[w]
}

// Resize returns s with length n, keeping every element s has held: a
// shrink only reslices, so elements past n stay parked in the backing array,
// and a grow past capacity copies the whole capacity, parked elements too.
func Resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		grown := make(S, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}
