package ctrl

import (
	"encoding/json"
	"fmt"

	"repro/internal/cost"
	"repro/internal/opt"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// Entry is one precomputed configuration of a Library.
type Entry struct {
	// Name identifies the entry ("cfg-0", or a caller-chosen name for
	// imported weights).
	Name string
	// W is the dual-topology weight setting.
	W *routing.WeightSetting
	// Cluster lists the indices (into the library's scenario list) of
	// the scenarios whose cluster this entry was optimized against;
	// empty for imported entries.
	Cluster []int
	// Fingerprint[i] is the entry's objective under scenario i of the
	// library's scenario set — the per-scenario cost the selector's
	// oracle equivalence is audited against.
	Fingerprint []cost.Cost
	// Violations[i] is the SLA violation count under scenario i.
	Violations []int
}

// Library is a set of precomputed configurations covering a scenario
// space, the artifact BuildLibrary produces and the Selector serves.
type Library struct {
	// Set names the scenario set the library was built against;
	// Scenarios lists its scenario names in evaluation order.
	Set       string
	Scenarios []string
	Entries   []Entry
}

// Size returns the number of configurations.
func (l *Library) Size() int { return len(l.Entries) }

// Links returns the number of directed links the configurations cover
// (0 for an empty library).
func (l *Library) Links() int {
	if len(l.Entries) == 0 {
		return 0
	}
	return l.Entries[0].W.Len()
}

// BuildConfig parameterizes BuildLibrary.
type BuildConfig struct {
	// K is the target number of configurations (clusters). The library
	// may come out smaller when the scenario space has fewer distinct
	// behaviours than K. Default 4.
	K int
	// Opt is the optimizer configuration; its Seed also drives the
	// clustering.
	Opt opt.Config
}

// BuildLibrary precomputes a configuration library for a scenario set:
//
//  1. Phase 1 of the two-phase heuristic runs once, producing the
//     normal-conditions benchmarks and the acceptable-solution pool
//     every cluster search starts from.
//  2. Every scenario is probed under the Phase 1 routing; its response
//     (Λ, Φ, violations, peak utilization, disconnections) is the
//     feature vector clustering groups.
//  3. The scenario space is clustered into K groups (seeded k-means on
//     min-max-normalized features).
//  4. Each cluster runs the robust search (opt.RunPhase2Set) over its
//     scenarios, yielding one configuration per cluster. Every entry
//     therefore also satisfies the normal-conditions constraints of
//     Eqs. (5)-(6): switching configurations never trades away normal
//     performance beyond the paper's χ tolerance.
//  5. Every entry is fingerprinted: its objective under every scenario
//     of the full set, so selection quality is auditable offline.
//
// The build is deterministic in cfg.Opt.Seed.
func BuildLibrary(ev *routing.Evaluator, set scenario.Set, cfg BuildConfig) (*Library, error) {
	if set.Size() == 0 {
		return nil, fmt.Errorf("ctrl: empty scenario set")
	}
	k := cfg.K
	if k == 0 {
		k = 4
	}
	if k < 1 {
		return nil, fmt.Errorf("ctrl: library size %d < 1", k)
	}
	if k > set.Size() {
		k = set.Size()
	}

	o := opt.New(ev, cfg.Opt)
	p1 := o.RunPhase1()

	// Probe the scenario space under the Phase 1 routing.
	rep := scenario.Runner{}.Run(ev, p1.BestW, set)
	points := make([][]float64, set.Size())
	for i := range rep.Results {
		r := &rep.Results[i].Result
		points[i] = []float64{
			r.Cost.Lambda,
			r.PhiNorm,
			float64(r.Violations),
			r.MaxUtil,
			float64(r.Disconnected),
		}
	}
	normalizeColumns(points)
	assign := kmeans(points, k, cfg.Opt.Seed)

	clusters := make([][]int, k)
	for i, c := range assign {
		clusters[c] = append(clusters[c], i)
	}

	lib := &Library{Set: set.Name}
	for i := range rep.Results {
		lib.Scenarios = append(lib.Scenarios, rep.Results[i].Name)
	}
	for _, cluster := range clusters {
		if len(cluster) == 0 {
			continue
		}
		sub := scenario.Set{Name: fmt.Sprintf("%s/cluster-%d", set.Name, len(lib.Entries))}
		for _, i := range cluster {
			sub.Scenarios = append(sub.Scenarios, set.Scenarios[i])
		}
		p2 := o.RunPhase2Set(p1, sub, nil)
		lib.Entries = append(lib.Entries, Entry{
			Name:    fmt.Sprintf("cfg-%d", len(lib.Entries)),
			W:       p2.BestW,
			Cluster: cluster,
		})
	}
	lib.fingerprint(ev, set)
	return lib, nil
}

// FromWeightSettings assembles a library from externally optimized
// configurations — e.g. dtropt -weights-out files — without scenario
// clustering or fingerprints. names may be nil (entries get "cfg-i") or
// must align with ws.
func FromWeightSettings(ev *routing.Evaluator, names []string, ws []*routing.WeightSetting) (*Library, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("ctrl: no weight settings")
	}
	if names != nil && len(names) != len(ws) {
		return nil, fmt.Errorf("ctrl: %d names for %d weight settings", len(names), len(ws))
	}
	m := ev.Graph().NumLinks()
	lib := &Library{}
	for i, w := range ws {
		if w.Len() != m {
			return nil, fmt.Errorf("ctrl: weight setting %d covers %d links, network has %d", i, w.Len(), m)
		}
		name := fmt.Sprintf("cfg-%d", i)
		if names != nil {
			name = names[i]
		}
		lib.Entries = append(lib.Entries, Entry{Name: name, W: w.Clone()})
	}
	return lib, nil
}

// fingerprint fills every entry's per-scenario objective over the set.
func (l *Library) fingerprint(ev *routing.Evaluator, set scenario.Set) {
	for e := range l.Entries {
		rep := scenario.Runner{}.Run(ev, l.Entries[e].W, set)
		entry := &l.Entries[e]
		entry.Fingerprint = make([]cost.Cost, len(rep.Results))
		entry.Violations = make([]int, len(rep.Results))
		for i := range rep.Results {
			entry.Fingerprint[i] = rep.Results[i].Cost
			entry.Violations[i] = rep.Results[i].Violations
		}
	}
}

type jsonEntry struct {
	Name        string          `json:"name"`
	Weights     json.RawMessage `json:"weights"`
	Cluster     []int           `json:"cluster,omitempty"`
	Fingerprint []cost.Cost     `json:"fingerprint,omitempty"`
	Violations  []int           `json:"violations,omitempty"`
}

type jsonLibrary struct {
	Set       string      `json:"set"`
	Scenarios []string    `json:"scenarios,omitempty"`
	Entries   []jsonEntry `json:"entries"`
}

// MarshalJSON encodes the library, weights via the routing codec, so a
// library survives daemon restarts.
func (l *Library) MarshalJSON() ([]byte, error) {
	jl := jsonLibrary{Set: l.Set, Scenarios: l.Scenarios}
	for _, e := range l.Entries {
		wj, err := e.W.MarshalJSON()
		if err != nil {
			return nil, err
		}
		jl.Entries = append(jl.Entries, jsonEntry{
			Name:        e.Name,
			Weights:     wj,
			Cluster:     e.Cluster,
			Fingerprint: e.Fingerprint,
			Violations:  e.Violations,
		})
	}
	return json.Marshal(jl)
}

// UnmarshalJSON decodes and validates a library: at least one entry,
// all entries covering the same link count, aligned fingerprints.
func (l *Library) UnmarshalJSON(data []byte) error {
	var jl jsonLibrary
	if err := json.Unmarshal(data, &jl); err != nil {
		return fmt.Errorf("ctrl: decode library: %w", err)
	}
	if len(jl.Entries) == 0 {
		return fmt.Errorf("ctrl: library has no entries")
	}
	out := Library{Set: jl.Set, Scenarios: jl.Scenarios}
	for i, je := range jl.Entries {
		var w routing.WeightSetting
		if err := w.UnmarshalJSON(je.Weights); err != nil {
			return fmt.Errorf("ctrl: entry %d: %w", i, err)
		}
		if i > 0 && w.Len() != out.Entries[0].W.Len() {
			return fmt.Errorf("ctrl: entry %d covers %d links, entry 0 covers %d", i, w.Len(), out.Entries[0].W.Len())
		}
		if je.Fingerprint != nil && len(jl.Scenarios) != len(je.Fingerprint) {
			return fmt.Errorf("ctrl: entry %d fingerprint covers %d scenarios, library lists %d", i, len(je.Fingerprint), len(jl.Scenarios))
		}
		out.Entries = append(out.Entries, Entry{
			Name:        je.Name,
			W:           &w,
			Cluster:     je.Cluster,
			Fingerprint: je.Fingerprint,
			Violations:  je.Violations,
		})
	}
	*l = out
	return nil
}
