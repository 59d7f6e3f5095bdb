package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/obsv"
)

func testServer(t *testing.T) (*httptest.Server, *repro.Library, *repro.Fleet) {
	t.Helper()
	return testServerIntake(t, repro.IntakeOptions{})
}

// testServerIntake builds the standard single-network 8-node test
// daemon with the shard's intake tuned by opts (backpressure tests
// shrink the queue).
func testServerIntake(t *testing.T, opts repro.IntakeOptions) (*httptest.Server, *repro.Library, *repro.Fleet) {
	t.Helper()
	// Each test server owns a fresh registry installed as the process
	// default, so engine-level metrics (spf, routing, ctrl) surface on
	// its /metrics and counts never leak across tests.
	reg := obsv.NewRegistry()
	reg.EnableSpans(4096) // mirrors the daemon's -span-cap default
	obsv.SetDefault(reg)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	nw, lib := testEngine(t)
	f, err := repro.NewFleet(
		[]repro.FleetMember{{Name: "net0", Net: nw, Library: lib}},
		repro.FleetOptions{Intake: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(context.Background()) })
	ts := httptest.NewServer(newServer(f, []member{{name: "net0", net: nw, lib: lib}}, opts.RetryAfter, reg).mux())
	t.Cleanup(ts.Close)
	return ts, lib, f
}

// testEngine builds the network and library every daemon test serves;
// the registry install is the caller's business.
func testEngine(t *testing.T) (*repro.Network, *repro.Library) {
	t.Helper()
	net, err := repro.NewNetwork(repro.NetworkSpec{Topology: "rand", Nodes: 8, Links: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := net.MergeScenarios("day",
		net.DualLinkFailureScenarios(4, 5),
		net.HotspotSurgeScenarios(true, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := net.BuildLibrary(set, repro.LibraryOptions{Size: 2, Budget: "quick", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return net, lib
}

// intakeStats returns the single test shard's admission ledger.
func intakeStats(f *repro.Fleet) repro.IntakeStats {
	return f.FleetState().Shards[0].Intake
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	ts, lib, f := testServer(t)

	var health struct {
		Status   string   `json:"status"`
		Networks []string `json:"networks"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || len(health.Networks) != 1 || health.Networks[0] != "net0" {
		t.Fatalf("healthz %+v", health)
	}

	var cfg struct {
		Network string   `json:"network"`
		Nodes   int      `json:"nodes"`
		Links   int      `json:"links"`
		Configs []string `json:"configs"`
	}
	getJSON(t, ts.URL+"/config", &cfg)
	if cfg.Network != "net0" || cfg.Nodes != 8 || cfg.Links != 32 || len(cfg.Configs) != lib.Size() {
		t.Fatalf("config %+v", cfg)
	}

	// Observe a failure; after a quiesce (the intake is asynchronous —
	// 202 means accepted, not yet applied) state must reflect it.
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("observe returned %d", code)
	}
	f.QuiesceAll()
	var st repro.ControllerState
	getJSON(t, ts.URL+"/state", &st)
	if len(st.DownLinks) != 1 || st.DownLinks[0] != 3 {
		t.Fatalf("state after link-down: %+v", st)
	}

	var adv repro.Advice
	getJSON(t, ts.URL+"/advise", &adv)
	if adv.Config < 0 || adv.Config >= lib.Size() {
		t.Fatalf("advice %+v", adv)
	}

	var plan repro.MigrationPlan
	if code := postJSON(t, ts.URL+"/plan", map[string]int{"target": adv.Config, "max_changes": 2}, &plan); code != http.StatusOK {
		t.Fatalf("plan returned %d", code)
	}
	if len(plan.Steps) > 2 {
		t.Fatalf("plan exceeded budget: %d steps", len(plan.Steps))
	}
	if code := postJSON(t, ts.URL+"/apply", map[string]int{"target": adv.Config, "max_changes": 2}, &plan); code != http.StatusOK {
		t.Fatalf("apply returned %d", code)
	}

	// Recover and check metrics exposition.
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-up", Link: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("observe link-up returned %d", code)
	}
	f.QuiesceAll()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`dtrd_events_total{network="net0"} 2`,
		`dtrd_down_links{network="net0"} 0`,
		"dtrd_config_sla_violations{config=",
		`dtrd_http_requests_total{path="/observe"} 2`,
		// Fleet families surface through the same registry.
		"fleet_shards 1",
		`fleet_shard_up{network="net0"} 1`,
		`fleet_events_total{network="net0"} 2`,
		// Engine metrics surface through the same registry: repair vs
		// fresh-Dijkstra counts, the session event-class mix, per-event-
		// class controller latencies, and per-path HTTP latencies.
		"spf_runs_total",
		`spf_repairs_total{path="batch"}`,
		`routing_session_dests_total{class="repair"}`,
		`routing_session_dests_total{class="dag_only"}`,
		`ctrl_observe_seconds_bucket{class="link",le="+Inf"}`,
		`dtrd_http_request_seconds_bucket{path="/observe",le="+Inf"} 2`,
		// Intake-pipeline metrics: both events were accepted and
		// delivered, and the queue drained back to zero depth.
		`ingest_events_total{result="accepted"} 2`,
		"ingest_deliveries_total 2",
		"ingest_queue_depth 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The exposition must be format-clean: HELP/TYPE pairing, proper
	// label escaping, no duplicate series.
	if errs := obsv.LintExposition(body); len(errs) != 0 {
		t.Errorf("exposition lint: %v", errs)
	}

	// The decision trace retains the replayed observe/advise activity.
	var trace struct {
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Events   []struct {
			Kind string `json:"kind"`
			Msg  string `json:"msg"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/debug/trace", &trace)
	if trace.Total == 0 || trace.Retained != len(trace.Events) {
		t.Fatalf("trace: %+v", trace)
	}
	kinds := map[string]bool{}
	for _, e := range trace.Events {
		kinds[e.Kind] = true
	}
	if !kinds["observe"] || !kinds["plan"] {
		t.Errorf("trace missing observe/plan records: %+v", kinds)
	}

	// Error paths surface as 400s.
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad event kind returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/plan", map[string]int{"target": 99}, nil); code != http.StatusBadRequest {
		t.Errorf("bad plan target returned %d", code)
	}
}

// TestServerPlanApplyBodyCap: /plan and /apply read at most
// maxPlanBytes of request body. A body past the cap — here a valid
// apply request padded with whitespace — is rejected with 400, and the
// fleet state is unchanged.
func TestServerPlanApplyBodyCap(t *testing.T) {
	ts, lib, _ := testServer(t)
	var before repro.ControllerState
	getJSON(t, ts.URL+"/state", &before)
	target := (before.Active + 1) % lib.Size()
	body := fmt.Sprintf(`{"target": %d, "max_changes": 0%s}`, target, strings.Repeat(" ", maxPlanBytes))
	for _, path := range []string{"/plan", "/apply"} {
		resp := postRaw(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a %d-byte body returned %d, want 400", path, len(body), resp.StatusCode)
		}
		var after repro.ControllerState
		getJSON(t, ts.URL+"/state", &after)
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("%s with an oversized body changed the state:\n before %+v\n after  %+v", path, before, after)
		}
	}
}

// TestServerObserveDemandDelta drives the sparse demand wire form:
// /observe accepts a demand-delta event, scores shift, duplicate
// deltas dedupe without fanning out, a base restore returns the exact
// starting scores, and malformed deltas surface as 400s.
func TestServerObserveDemandDelta(t *testing.T) {
	ts, _, f := testServer(t)

	var before repro.ControllerState
	getJSON(t, ts.URL+"/state", &before)

	surge := repro.ControlEvent{Kind: "demand-delta",
		DeltaT: &repro.DemandDelta{Entries: []repro.DemandDeltaEntry{
			{S: 0, T: 2, New: 80}, {S: 5, T: 2, New: 40},
		}}}
	if code := postJSON(t, ts.URL+"/observe", surge, nil); code != http.StatusAccepted {
		t.Fatalf("observe demand-delta returned %d", code)
	}
	f.QuiesceAll()
	var st repro.ControllerState
	getJSON(t, ts.URL+"/state", &st)
	if st.Events != 1 {
		t.Fatalf("events = %d after surge", st.Events)
	}
	if st.Deployed == before.Deployed {
		t.Fatal("surge did not change the deployed evaluation")
	}

	// Restating the surged values is a no-op: no fan-out, no event.
	if code := postJSON(t, ts.URL+"/observe", surge, nil); code != http.StatusAccepted {
		t.Fatalf("duplicate demand-delta returned %d", code)
	}
	f.QuiesceAll()
	getJSON(t, ts.URL+"/state", &st)
	if st.Events != 1 {
		t.Fatalf("duplicate delta counted: events = %d", st.Events)
	}

	// Restoring base traffic returns the exact starting scores.
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "demand-scale", Scale: 1}, nil); code != http.StatusAccepted {
		t.Fatalf("base restore returned %d", code)
	}
	f.QuiesceAll()
	getJSON(t, ts.URL+"/state", &st)
	if st.Deployed != before.Deployed {
		t.Fatalf("deployed evaluation did not return to base: %+v vs %+v", st.Deployed, before.Deployed)
	}

	for _, bad := range []repro.ControlEvent{
		{Kind: "demand-delta", DeltaD: &repro.DemandDelta{Entries: []repro.DemandDeltaEntry{{S: 1, T: 1, New: 5}}}},
		{Kind: "demand-delta", DeltaT: &repro.DemandDelta{Entries: []repro.DemandDeltaEntry{{S: 0, T: 99, New: 5}}}},
		{Kind: "demand-delta", DeltaT: &repro.DemandDelta{Entries: []repro.DemandDeltaEntry{{S: 0, T: 1, New: -5}}}},
	} {
		if code := postJSON(t, ts.URL+"/observe", bad, nil); code != http.StatusBadRequest {
			t.Errorf("invalid delta %+v returned %d", bad, code)
		}
	}
}

// TestServerConcurrentRequests hammers every endpoint from many
// goroutines; run under -race (CI does) this is the daemon's
// concurrency acceptance test.
func TestServerConcurrentRequests(t *testing.T) {
	ts, lib, f := testServer(t)
	const workers = 8
	const iters = 12

	get := func(url string, out any) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	post := func(url string, body, out any, ok ...int) error {
		if len(ok) == 0 {
			ok = []int{http.StatusOK}
		}
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if !slices.Contains(ok, resp.StatusCode) {
			return fmt.Errorf("POST %s: %d", url, resp.StatusCode)
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// Observes are asynchronous: 202 accepts the batch, 429 sheds it
	// whole under backpressure. Both are correct daemon behavior here.
	observeOK := []int{http.StatusAccepted, http.StatusTooManyRequests}

	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make(chan error, workers*iters*2)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				link := (k*iters + i) % 32
				kind := "link-down"
				if i%2 == 1 {
					kind = "link-up"
				}
				if err := post(ts.URL+"/observe", repro.ControlEvent{Kind: kind, Link: link}, nil, observeOK...); err != nil {
					errs <- err
					continue
				}
				if i%4 == 3 {
					delta := repro.ControlEvent{Kind: "demand-delta",
						DeltaT: &repro.DemandDelta{Entries: []repro.DemandDeltaEntry{
							{S: k % 8, T: (k + 3) % 8, New: float64(10 + i)},
						}}}
					if err := post(ts.URL+"/observe", delta, nil, observeOK...); err != nil {
						errs <- err
						continue
					}
				}
				var adv repro.Advice
				if err := get(ts.URL+"/advise", &adv); err != nil {
					errs <- err
					continue
				}
				if adv.Config < 0 || adv.Config >= lib.Size() {
					errs <- fmt.Errorf("advice config %d", adv.Config)
				}
				switch i % 3 {
				case 0:
					var st repro.ControllerState
					if err := get(ts.URL+"/state", &st); err != nil {
						errs <- err
					}
				case 1:
					var plan repro.MigrationPlan
					if err := post(ts.URL+"/plan", map[string]int{"target": adv.Config, "max_changes": 3}, &plan); err != nil {
						errs <- err
					} else if len(plan.Steps) > 3 {
						errs <- fmt.Errorf("plan steps %d", len(plan.Steps))
					}
				case 2:
					if err := get(ts.URL+"/metrics", nil); err != nil {
						errs <- err
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the hammering stops, the queue must drain completely and the
	// admission ledger must balance: everything accepted was delivered.
	f.QuiesceAll()
	st := intakeStats(f)
	if st.Depth != 0 || st.Accepted != st.Delivered {
		t.Errorf("intake did not reconcile after drain: %+v", st)
	}
}
