package spf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickAccumulateTieOrderInvariance checks the canonical (pull-based)
// accumulation directly: loads computed off a cached snapshot equal loads
// off a fresh run even when intervening runs could have reshuffled
// equal-distance settle order.
func TestQuickAccumulateTieOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, w := randGraph(r)
		n := g.NumNodes()
		dest := r.Intn(n)
		dem := make([]float64, n)
		for i := range dem {
			if i != dest {
				dem[i] = 1 + r.Float64()
			}
		}
		ws := NewWorkspace(g)
		ws.Run(g, w, dest, nil)
		var st State
		ws.Save(&st)
		fresh := make([]float64, g.NumLinks())
		ws.AccumulateLoadsInto(g, w, dem, nil, fresh)

		// Clobber the workspace with other destinations, then restore the
		// snapshot and re-accumulate.
		for d := 0; d < n; d++ {
			ws.Run(g, w, d, nil)
		}
		ws.Restore(&st)
		cached := make([]float64, g.NumLinks())
		ws.AccumulateLoadsInto(g, w, dem, nil, cached)
		for i := range fresh {
			if fresh[i] != cached[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
