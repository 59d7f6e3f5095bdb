package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/ctrl"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// equivEvaluator builds the test network: a seeded random or ISP
// topology with gravity demands scaled to 50% average utilization.
func equivEvaluator(t testing.TB, spec topogen.Spec, seed int64) *routing.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topogen.Generate(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	demD, demT := traffic.Gravity(g.NumNodes(), 1, 0.3, rng)
	if _, err := routing.ScaleToAvgUtil(g, demD, demT, 0.5); err != nil {
		t.Fatal(err)
	}
	return routing.NewEvaluator(g, demD, demT, cost.DefaultParams(), routing.WorstPath)
}

func equivSelector(t testing.TB, ev *routing.Evaluator, seed int64) *ctrl.Selector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ws := make([]*routing.WeightSetting, 4)
	for i := range ws {
		ws[i] = routing.RandomWeightSetting(ev.Graph().NumLinks(), 20, rng)
	}
	lib, err := ctrl.FromWeightSettings(ev, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ctrl.NewSelector(ev, lib)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// streamGen emits a random interleaved telemetry stream: ~50% link
// flaps (including restatements and flap/unflap pairs), ~40% sparse
// demand deltas, ~10% dense demand updates (scaled matrices alternating
// with resets to base). It tracks the effective demand state so delta
// Old values describe the transition honestly, like a real feed would.
type streamGen struct {
	rng       *rand.Rand
	ev        *routing.Evaluator
	demT      *traffic.Matrix // shadow of the effective throughput demands
	denseFlip bool
}

func newStreamGen(ev *routing.Evaluator, seed int64) *streamGen {
	return &streamGen{
		rng:  rand.New(rand.NewSource(seed)),
		ev:   ev,
		demT: ev.DemandThroughput().Clone(),
	}
}

func (g *streamGen) next() scenario.Event {
	switch r := g.rng.Float64(); {
	case r < 0.5: // link flap (state chosen blind: restatements exercise dedup)
		kind := scenario.EventLinkDown
		if g.rng.Intn(2) == 0 {
			kind = scenario.EventLinkUp
		}
		return scenario.Event{Kind: kind, Link: g.rng.Intn(g.ev.Graph().NumLinks())}
	case r < 0.9: // sparse delta against the throughput class
		n := g.ev.Graph().NumNodes()
		d := &traffic.Delta{}
		for k := 1 + g.rng.Intn(3); k > 0; k-- {
			s := g.rng.Intn(n)
			t := g.rng.Intn(n)
			if s == t {
				t = (t + 1) % n
			}
			next := float64(g.rng.Intn(80)) // occasionally restates the current value
			d.Entries = append(d.Entries, traffic.DeltaEntry{S: s, T: t, Old: g.demT.At(s, t), New: next})
			g.demT.Set(s, t, next)
		}
		return scenario.Event{Kind: scenario.EventDemandDelta, DeltaT: d}
	default: // dense update: scaled surge, then reset to base, alternating
		g.denseFlip = !g.denseFlip
		if g.denseFlip {
			scaled := g.ev.DemandThroughput().Clone().Scale(1.0 + g.rng.Float64())
			g.demT = scaled.Clone()
			return scenario.Event{Kind: scenario.EventDemand, DemT: scaled}
		}
		g.demT = g.ev.DemandThroughput().Clone()
		return scenario.Event{Kind: scenario.EventDemand} // nil matrices: back to base
	}
}

// compareSelectors asserts the two selectors are in bit-identical
// observable state: every candidate's evaluation result, the advised
// candidate, the down-link set and the effective demand matrices.
func compareSelectors(t *testing.T, seq, bat *ctrl.Selector, ev *routing.Evaluator, at string) {
	t.Helper()
	ss, bs := seq.State(), bat.State()
	for i := range ss.Configs {
		rs, rb := ss.Configs[i].Result, bs.Configs[i].Result
		if rs.Cost != rb.Cost || rs.PhiNorm != rb.PhiNorm || rs.Violations != rb.Violations ||
			rs.Disconnected != rb.Disconnected || rs.MaxUtil != rb.MaxUtil || rs.AvgUtil != rb.AvgUtil {
			t.Fatalf("%s: candidate %d diverged:\n  sequential %+v\n  batched    %+v", at, i, rs, rb)
		}
	}
	sa, ba := seq.Advise(), bat.Advise()
	if sa.Config != ba.Config || sa.Result.Cost != ba.Result.Cost {
		t.Fatalf("%s: advise diverged: sequential (%d, %v), batched (%d, %v)", at, sa.Config, sa.Result.Cost, ba.Config, ba.Result.Cost)
	}
	if !reflect.DeepEqual(ss.DownLinks, bs.DownLinks) {
		t.Fatalf("%s: down links diverged: %v vs %v", at, ss.DownLinks, bs.DownLinks)
	}
	eff := func(m, base *traffic.Matrix) *traffic.Matrix {
		if m == nil {
			return base
		}
		return m
	}
	sc, bc := seq.Checkpoint(), bat.Checkpoint()
	if !eff(sc.DemD, ev.DemandDelay()).Equal(eff(bc.DemD, ev.DemandDelay())) ||
		!eff(sc.DemT, ev.DemandThroughput()).Equal(eff(bc.DemT, ev.DemandThroughput())) {
		t.Fatalf("%s: effective demand matrices diverged", at)
	}
}

// TestCoalescedBatchEquivalence is the coalescer's correctness proof:
// any interleaved stream of link flaps, demand deltas and dense demand
// updates, chunked into batches and coalesced, must leave the
// selector's sessions and advise output bit-identical to delivering
// the same events one at a time, in order.
func TestCoalescedBatchEquivalence(t *testing.T) {
	type config struct {
		name    string
		spec    topogen.Spec
		seeds   []int64
		batches []int
		nBatch  int
	}
	configs := []config{
		{"rand8", topogen.Spec{Kind: topogen.RandKind, Nodes: 8, DirectedLinks: 32}, []int64{1, 2}, []int{3, 17, 64}, 8},
		{"isp16", topogen.Spec{Kind: topogen.ISPKind}, []int64{1, 2}, []int{3, 17}, 6},
		{"rand100", topogen.Spec{Kind: topogen.RandKind, Nodes: 100, DirectedLinks: 500}, []int64{1}, []int{64}, 4},
	}
	for _, cfg := range configs {
		for _, seed := range cfg.seeds {
			for _, batchSize := range cfg.batches {
				name := fmt.Sprintf("%s/seed%d/batch%d", cfg.name, seed, batchSize)
				t.Run(name, func(t *testing.T) {
					if testing.Short() && cfg.name == "rand100" {
						t.Skip("large topology skipped in -short")
					}
					ev := equivEvaluator(t, cfg.spec, seed)
					seq := equivSelector(t, ev, seed+100)
					bat := equivSelector(t, ev, seed+100)
					gen := newStreamGen(ev, seed+200)
					for b := 0; b < cfg.nBatch; b++ {
						chunk := make([]scenario.Event, batchSize)
						for i := range chunk {
							chunk[i] = gen.next()
						}
						for _, e := range chunk {
							if err := seq.ObserveBatch([]scenario.Event{e}, 0, 0); err != nil {
								t.Fatalf("sequential observe: %v", err)
							}
						}
						out, st := Coalesce(chunk)
						if st.In != batchSize || st.Out != len(out) {
							t.Fatalf("coalesce stats %+v inconsistent with %d -> %d", st, batchSize, len(out))
						}
						if err := bat.ObserveBatch(out, 0, 0); err != nil {
							t.Fatalf("batched observe: %v", err)
						}
						compareSelectors(t, seq, bat, ev, fmt.Sprintf("%s batch %d", name, b))
					}
				})
			}
		}
	}
}
