// Package par fans index-owned work out to a bounded set of goroutines.
//
// Every fan-out in the engine has the same shape: n independent tasks,
// each writing only its own output slot and its worker's scratch, so the
// result is the same bits however the tasks are spread. Do and Pool.Run
// run such tasks on min(k, n) workers that pull task indices off one
// atomic counter, with the calling goroutine as worker 0; the body
// receives the worker index so callers can keep per-worker scratch.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls body(w, i) once for every task i in [0, n) on at most k
// workers and returns the number of workers used (see Pool.Run). It
// allocates a fresh pool per call; hot paths keep a Pool instead.
func Do(k, n int, body func(worker, task int)) int {
	return new(Pool).Run(k, n, body)
}

// Pool is the reusable form of Do: once a Pool has run, later runs
// spawn their workers without allocating. A Pool runs one fan-out at a
// time; its zero value is ready to use.
type Pool struct {
	body  func(worker, task int)
	n     int64
	next  atomic.Int64
	widx  atomic.Int32
	wg    sync.WaitGroup
	spawn func() // p.work, bound once so spawns allocate nothing
}

// Run calls body(w, i) once for every task i in [0, n) on
// min(max(k, 1), n) workers, w ranging over [0, workers), waits for all
// of them and returns the worker count (0 when n is 0). The calling
// goroutine is worker 0; with one worker every task runs on it in
// index order. Workers take tasks in index order from a shared
// counter, so which worker runs which task depends on scheduling: body
// must write only state owned by task i or by worker w. Callers that
// need body to be allocation-free pass a function value bound once.
func (p *Pool) Run(k, n int, body func(worker, task int)) int {
	if n <= 0 {
		return 0
	}
	k = max(1, min(k, n))
	if k == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return 1
	}
	if p.spawn == nil {
		p.spawn = p.work
	}
	p.body, p.n = body, int64(n)
	p.next.Store(0)
	p.widx.Store(0)
	p.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go p.spawn()
	}
	// Yield once so the workers start now. The last goroutine spawned
	// sits in this P's run-next slot, which idle Ps steal from only
	// after a delay; without the yield the caller would run most short
	// fan-outs alone and then wait for a worker that found nothing.
	runtime.Gosched()
	defer p.wg.Wait() // no worker outlives Run, even when body panics on worker 0
	p.loop(0)
	return k
}

// work is one spawned worker: it takes the next worker index and pulls
// tasks until the counter runs past n.
func (p *Pool) work() {
	p.loop(int(p.widx.Add(1)))
	p.wg.Done()
}

func (p *Pool) loop(w int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.body(w, int(i))
	}
}
