package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryTaskOnce: every task runs exactly once, on a worker
// index below the returned worker count, which is min(max(k, 1), n).
func TestRunCoversEveryTaskOnce(t *testing.T) {
	var p Pool // reused across cases on purpose
	for _, k := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			runs := make([]atomic.Int32, n)
			var maxWorker atomic.Int32
			got := p.Run(k, n, func(w, i int) {
				runs[i].Add(1)
				for {
					cur := maxWorker.Load()
					if int32(w) <= cur || maxWorker.CompareAndSwap(cur, int32(w)) {
						break
					}
				}
			})
			want := 0
			if n > 0 {
				want = max(1, min(k, n))
			}
			label := fmt.Sprintf("k=%d n=%d", k, n)
			if got != want {
				t.Errorf("%s: Run used %d workers, want %d", label, got, want)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("%s: task %d ran %d times", label, i, c)
				}
			}
			if n > 0 && int(maxWorker.Load()) >= got {
				t.Errorf("%s: worker index %d outside [0,%d)", label, maxWorker.Load(), got)
			}
		}
	}
}

// TestRunSerialInOrder: with one worker every task runs on the calling
// goroutine, in index order.
func TestRunSerialInOrder(t *testing.T) {
	var order []int
	Do(1, 6, func(w, i int) {
		if w != 0 {
			t.Errorf("task %d on worker %d", i, w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("ran %d of 6 tasks", len(order))
	}
}

// TestPoolRunAllocatesNothing: a warm Pool given a body bound once runs
// without allocating, the contract routing sessions rely on for
// allocation-free updates.
func TestPoolRunAllocatesNothing(t *testing.T) {
	var p Pool
	out := make([]int, 64)
	body := func(_, i int) { out[i] = i * i }
	p.Run(4, len(out), body)
	if a := testing.AllocsPerRun(50, func() { p.Run(4, len(out), body) }); a != 0 {
		t.Errorf("warm Pool.Run allocated %.1f times per run, want 0", a)
	}
}
