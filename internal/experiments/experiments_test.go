package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/routing"
	scen "repro/internal/scenario"
)

func quickOpts(buf *bytes.Buffer) Options {
	return Options{Scale: Quick, Seed: 7, Out: buf}
}

// goldenPath holds every experiment's metrics at Quick scale, seed 7,
// recorded from a known-good tree. The comparison is bit for bit: the
// search is deterministic at every worker count, so any drift is a
// behaviour change.
const goldenPath = "testdata/quick_seed7_metrics.json"

// timingMetrics are wall-clock readings, left out of the golden.
var timingMetrics = map[string]bool{
	"savings/phase2_seconds_critical":       true,
	"savings/phase2_seconds_full":           true,
	"savings/evals_per_sec_phase1":          true,
	"savings/evals_per_sec_phase2_critical": true,
	"savings/evals_per_sec_phase2_full":     true,
}

// pinned returns the report's metrics minus the timing readings.
func pinned(rep *Report) []Metric {
	var out []Metric
	for _, m := range rep.Metrics {
		if !timingMetrics[rep.ID+"/"+m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// sameMetrics compares names, order and value bits.
func sameMetrics(got, want []Metric) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Name != want[i].Name || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return false
		}
	}
	return true
}

// TestAllRunnersExecute runs every registered experiment at Quick scale,
// checks it prints something and returns metrics, and compares the
// metrics with the golden. On a mismatch it prints the actual JSON of
// every experiment that ran, in the golden's format.
func TestAllRunnersExecute(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]Metric
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	// FMA fusion on other architectures can change a float by one ulp
	// and with it a search decision, so only amd64 pins the values.
	compare := runtime.GOARCH == "amd64"
	var mu sync.Mutex
	actual := make(map[string][]Metric)
	mismatch := false
	t.Cleanup(func() {
		if !mismatch {
			return
		}
		out, err := json.MarshalIndent(actual, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("actual metrics (%s format):\n%s", goldenPath, out)
	})
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			rep, err := Run(id, quickOpts(&buf))
			if err != nil {
				t.Fatalf("%s failed: %v", id, err)
			}
			if rep == nil || rep.ID != id {
				t.Fatalf("%s returned bad report: %+v", id, rep)
			}
			if len(rep.Metrics) == 0 {
				t.Errorf("%s returned no metrics", id)
			}
			if buf.Len() == 0 {
				t.Errorf("%s printed nothing", id)
			}
			got := pinned(rep)
			mu.Lock()
			defer mu.Unlock()
			actual[id] = got
			if !compare {
				t.Logf("GOARCH=%s: metric values not compared (golden recorded on amd64)", runtime.GOARCH)
				return
			}
			if want := golden[id]; !sameMetrics(got, want) {
				mismatch = true
				t.Errorf("%s metrics differ from %s:\n got  %v\n want %v", id, goldenPath, got, want)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id must error")
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"quick": Quick, "std": Std, "paper": Paper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestRobustBeatsRegularOnAverage(t *testing.T) {
	// The paper's central claim at reproduction scale: robust
	// optimization produces no more SLA violations across failures than
	// regular optimization.
	var buf bytes.Buffer
	rep, err := Run("fig3", quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	robust, _ := rep.Get("avg_viol_robust")
	regular, _ := rep.Get("avg_viol_regular")
	if robust > regular {
		t.Errorf("robust avg violations %.2f exceed regular %.2f", robust, regular)
	}
}

func TestSavingsProportionalToCriticalSet(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Run("savings", quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	crit, _ := rep.Get("phase2_evals_critical")
	full, _ := rep.Get("phase2_evals_full")
	if crit <= 0 || full <= 0 {
		t.Fatalf("bad eval counts: %g %g", crit, full)
	}
	if crit >= full {
		t.Errorf("critical search did %g evals, full %g — no savings", crit, full)
	}
}

func TestTableOutputShape(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run("table2", quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "RandTopo", "NearTopo", "PLTopo", "ISP", "avg violations (robust)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Errorf("meanStd = %g, %g, want 5, 2", m, s)
	}
	m, s = meanStd(nil)
	if m != 0 || s != 0 {
		t.Error("empty meanStd should be 0,0")
	}
}

func TestPct(t *testing.T) {
	if got := pct(110, 100); got != 10 {
		t.Errorf("pct = %g", got)
	}
	if got := pct(90, 100); got != 10 {
		t.Errorf("pct abs = %g", got)
	}
	if got := pct(5, 0); got != 0 {
		t.Errorf("pct zero ref = %g", got)
	}
}

func TestOverlap(t *testing.T) {
	if got := overlap([]int{1, 2, 3}, []int{2, 3, 4}); got < 0.66 || got > 0.67 {
		t.Errorf("overlap = %g", got)
	}
	if got := overlap(nil, nil); got != 0 {
		t.Errorf("empty overlap = %g", got)
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tab := newTable("a", "bb")
	tab.row("x", "y")
	tab.rowf("%d|%g", 10, 2.5)
	tab.write(&buf, "Title")
	out := buf.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "10") || !strings.Contains(out, "2.5") {
		t.Errorf("table output wrong:\n%s", out)
	}
}

func TestWriteSeries(t *testing.T) {
	var buf bytes.Buffer
	writeSeries(&buf, "S", []string{"x", "y"}, [][]float64{{0, 1.5}, {1, 2.25}})
	out := buf.String()
	if !strings.Contains(out, "2.25") || !strings.Contains(out, "S") {
		t.Errorf("series output wrong:\n%s", out)
	}
}

func TestRankProfiles(t *testing.T) {
	results := []scen.Result{
		{Result: routing.Result{Violations: 3, PhiNorm: 0.5}},
		{Result: routing.Result{Violations: 9, PhiNorm: 0.1}},
		{Result: routing.Result{Violations: 1, PhiNorm: 0.9}},
	}
	viol, phi := rankProfiles(results, 2)
	if len(viol) != 2 || viol[0] != 9 || viol[1] != 3 {
		t.Errorf("viol profile = %v", viol)
	}
	// Phi sorts independently of violations.
	if phi[0] != 0.9 || phi[1] != 0.5 {
		t.Errorf("phi profile = %v", phi)
	}
	// k larger than input clamps.
	viol, _ = rankProfiles(results, 10)
	if len(viol) != 3 {
		t.Errorf("clamped profile length %d", len(viol))
	}
}

func TestQuickScaleTopologySizes(t *testing.T) {
	o := Options{Scale: Quick}
	ts := o.topos()
	if ts.rand.Nodes != 12 || ts.rand.DirectedLinks != 60 {
		t.Errorf("quick rand spec %+v", ts.rand)
	}
	o = Options{Scale: Std}
	ts = o.topos()
	if ts.rand.Nodes != 30 || ts.rand.DirectedLinks != 180 || ts.pl.EdgesPerNode != 3 {
		t.Errorf("std specs wrong: %+v %+v", ts.rand, ts.pl)
	}
}

func TestRepsDefaults(t *testing.T) {
	if (Options{Scale: Quick}).reps() != 1 || (Options{Scale: Std}).reps() != 3 || (Options{Scale: Paper}).reps() != 5 {
		t.Error("scale rep defaults wrong")
	}
	if (Options{Scale: Quick, Reps: 7}).reps() != 7 {
		t.Error("explicit reps ignored")
	}
}

func TestConfigBudgetsByScale(t *testing.T) {
	quick := Options{Scale: Quick, Seed: 9}.config()
	std := Options{Scale: Std, Seed: 9}.config()
	paper := Options{Scale: Paper, Seed: 9}.config()
	if quick.Seed != 9 || std.Seed != 9 || paper.Seed != 9 {
		t.Error("seed not propagated")
	}
	// Budgets must be strictly ordered: quick < std < paper (uncapped).
	if quick.MaxIter1 >= std.MaxIter1 {
		t.Errorf("quick MaxIter1 %d should be below std %d", quick.MaxIter1, std.MaxIter1)
	}
	if paper.MaxIter1 != 0 || paper.MaxIter2 != 0 {
		t.Errorf("paper scale must be uncapped, got %d/%d", paper.MaxIter1, paper.MaxIter2)
	}
	if paper.P1 != 20 || paper.P2 != 10 || paper.Div1Interval != 100 || paper.Div2Interval != 30 {
		t.Errorf("paper budgets drifted: %+v", paper)
	}
	// Model constants identical across scales.
	for _, c := range []struct {
		name string
		got  [3]float64
	}{
		{"quick", [3]float64{quick.Chi, quick.Q, quick.LeftTailFrac}},
		{"std", [3]float64{std.Chi, std.Q, std.LeftTailFrac}},
		{"paper", [3]float64{paper.Chi, paper.Q, paper.LeftTailFrac}},
	} {
		if c.got != [3]float64{0.2, 0.7, 0.1} {
			t.Errorf("%s model constants drifted: %v", c.name, c.got)
		}
	}
}
