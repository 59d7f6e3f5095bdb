package opt

import (
	"fmt"
	"testing"

	"repro/internal/obsv"
)

// TestPhase1EvaluationCounter checks that the phase-1 evaluation
// counter includes Phase 1b: after RunPhase1 plus TopUpSamples it must
// equal Stats.Evaluations, in exact and in emulation mode. Phase 1b
// must also record one opt.phase1b root span carrying its entries,
// links and evals.
func TestPhase1EvaluationCounter(t *testing.T) {
	for _, exact := range []bool{true, false} {
		t.Run(fmt.Sprintf("exact=%v", exact), func(t *testing.T) {
			reg := obsv.NewRegistry()
			spans := reg.EnableSpans(256)
			obsv.SetDefault(reg)
			defer obsv.SetDefault(nil)
			counter := reg.Counter("opt_phase_evaluations_total", "", obsv.L("phase", "1"))

			ev := testEvaluator(t, 4)
			cfg := testConfig()
			cfg.ExactPhase1b = exact
			o := New(ev, cfg)
			p1 := o.RunPhase1()
			phase1a := p1.Stats.Evaluations
			if got := counter.Value(); got != int64(phase1a) {
				t.Fatalf("after RunPhase1 the counter reads %d, Stats %d", got, phase1a)
			}
			o.TopUpSamples(p1)
			if got := counter.Value(); got != int64(p1.Stats.Evaluations) {
				t.Fatalf("after TopUpSamples the counter reads %d, Stats %d", got, p1.Stats.Evaluations)
			}
			if p1.Stats.Evaluations == phase1a {
				t.Fatal("TopUpSamples evaluated nothing")
			}

			var roots []obsv.SpanRecord
			for _, r := range spans.Spans() {
				if r.Name == "opt.phase1b" {
					roots = append(roots, r)
				}
			}
			if len(roots) != 1 {
				t.Fatalf("%d opt.phase1b spans, want 1", len(roots))
			}
			want := map[string]int{
				"entries": len(p1.Pool),
				"links":   ev.Graph().NumLinks(),
				"evals":   p1.Stats.Evaluations - phase1a,
			}
			for key, v := range want {
				if got, ok := roots[0].Attr(key); !ok || got != int64(v) {
					t.Errorf("opt.phase1b %s = %d (set %v), want %d", key, got, ok, v)
				}
			}
			if roots[0].Parent != 0 {
				t.Errorf("opt.phase1b has parent %d, want a root", roots[0].Parent)
			}
		})
	}
}
