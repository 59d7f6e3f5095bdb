package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/obsv"
)

// debugServer is testServer with span recording on and handles on the
// registry and fleet.
func debugServer(t *testing.T) (*httptest.Server, *obsv.Registry, *repro.Fleet) {
	t.Helper()
	reg := obsv.NewRegistry()
	reg.EnableSpans(4096)
	obsv.SetDefault(reg)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	nw, lib := testEngine(t)
	f, err := repro.NewFleet(
		[]repro.FleetMember{{Name: "net0", Net: nw, Library: lib}},
		repro.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(context.Background()) })
	ts := httptest.NewServer(newServer(f, []member{{name: "net0", net: nw, lib: lib}}, 0, reg).mux())
	t.Cleanup(ts.Close)
	return ts, reg, f
}

type spansPayload struct {
	Total    uint64            `json:"total"`
	Capacity int               `json:"capacity"`
	Retained int               `json:"retained"`
	Spans    []obsv.SpanRecord `json:"spans"`
}

// TestDebugSpansLinkFlap: one simulated link flap through the daemon
// must produce a connected span tree — the ingest delivery span roots
// the trace, the observe span nests under it, advise joins, and each
// per-session update root carries its repair/re-sum/Λ region children
// — retrievable from /debug/spans, filterable by trace.
func TestDebugSpansLinkFlap(t *testing.T) {
	ts, _, f := debugServer(t)

	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("observe returned %d", code)
	}
	f.QuiesceAll()
	var adv repro.Advice
	getJSON(t, ts.URL+"/advise", &adv)

	var all spansPayload
	getJSON(t, ts.URL+"/debug/spans", &all)
	if all.Total == 0 || all.Retained != len(all.Spans) || all.Capacity != 4096 {
		t.Fatalf("spans payload: total=%d retained=%d capacity=%d", all.Total, all.Retained, all.Capacity)
	}

	// The ingest delivery span roots the flap's trace; the observe span
	// joins it as a child.
	var root, obs *obsv.SpanRecord
	for i := range all.Spans {
		switch all.Spans[i].Name {
		case "ingest.deliver":
			root = &all.Spans[i]
		case "observe.link":
			obs = &all.Spans[i]
		}
	}
	if root == nil || obs == nil {
		t.Fatalf("missing ingest.deliver/observe.link span in %d spans", len(all.Spans))
	}
	if root.Parent != 0 || root.Trace != root.ID {
		t.Fatalf("ingest.deliver not a trace root: %+v", root)
	}
	if obs.Trace != root.Trace || obs.Parent != root.ID {
		t.Fatalf("observe.link did not join the ingest trace: %+v vs root %+v", obs, root)
	}
	if v, ok := obs.Attr("link"); !ok || v != 3 {
		t.Fatalf("observe.link link attr = %d,%v", v, ok)
	}

	var tr spansPayload
	getJSON(t, ts.URL+"/debug/spans?trace="+itoa(root.Trace), &tr)
	names := map[string]int{}
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		if sp.Trace != root.Trace {
			t.Fatalf("trace filter leaked span %+v", sp)
		}
		names[sp.Name]++
		ids[sp.ID] = true
	}
	// The tree must be connected: every parent resolves inside the trace.
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %q parent %d missing from trace", sp.Name, sp.Parent)
		}
	}
	// One session.link update root per library configuration, each with
	// classification, repair, re-sum and Λ children; advise joins the
	// same trace.
	for name, want := range map[string]int{
		"ingest.deliver":   1,
		"observe.link":     1,
		"advise":           1,
		"session.link":     2,
		"session.classify": 2,
		"session.dests":    2,
		"session.resum":    2,
		"session.lambda":   2,
	} {
		if names[name] != want {
			t.Errorf("trace has %d %q spans, want %d (all: %v)", names[name], name, want, names)
		}
	}

	// ?limit= keeps the newest N.
	var lim spansPayload
	getJSON(t, ts.URL+"/debug/spans?limit=2", &lim)
	if len(lim.Spans) != 2 {
		t.Fatalf("limit=2 returned %d spans", len(lim.Spans))
	}
}

// TestDebugChromeTraceExport exports the flap trace as Chrome
// trace-event JSON and lints it.
func TestDebugChromeTraceExport(t *testing.T) {
	ts, _, f := debugServer(t)
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 5}, nil); code != http.StatusAccepted {
		t.Fatalf("observe returned %d", code)
	}
	f.QuiesceAll()
	resp, err := http.Get(ts.URL + "/debug/trace.chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace.chrome: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if errs := obsv.LintChromeTrace(body); len(errs) != 0 {
		t.Fatalf("chrome trace lint: %v", errs)
	}
}

// TestDebugFlightRecorder forces a latency capture by dropping the
// threshold to 1ns, then checks /debug/flightrec carries the span dump.
func TestDebugFlightRecorder(t *testing.T) {
	ts, reg, f := debugServer(t)
	reg.Flight().SetLatencyThreshold(time.Nanosecond)
	if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: "link-down", Link: 7}, nil); code != http.StatusAccepted {
		t.Fatalf("observe returned %d", code)
	}
	f.QuiesceAll()
	var fr struct {
		Total       uint64 `json:"total"`
		Retained    int    `json:"retained"`
		ThresholdNS int64  `json:"threshold_ns"`
		Records     []struct {
			Seq      uint64            `json:"seq"`
			Trace    uint64            `json:"trace"`
			Kind     string            `json:"kind"`
			Reason   string            `json:"reason"`
			Detail   string            `json:"detail"`
			Duration int64             `json:"duration_ns"`
			Spans    []obsv.SpanRecord `json:"spans"`
		} `json:"records"`
	}
	getJSON(t, ts.URL+"/debug/flightrec", &fr)
	if fr.Total == 0 || fr.Retained == 0 {
		t.Fatalf("no flight records after sub-ns threshold: %+v", fr)
	}
	if fr.ThresholdNS != 1 {
		t.Fatalf("threshold_ns = %d", fr.ThresholdNS)
	}
	rec := fr.Records[len(fr.Records)-1]
	if rec.Kind != "observe" || rec.Reason != "latency" {
		t.Fatalf("record %+v", rec)
	}
	if rec.Trace == 0 || len(rec.Spans) == 0 {
		t.Fatalf("flight record carries no span dump: trace=%d spans=%d", rec.Trace, len(rec.Spans))
	}
	for _, sp := range rec.Spans {
		if sp.Trace != rec.Trace {
			t.Fatalf("flight span from foreign trace: %+v", sp)
		}
	}
	if rec.Duration <= 0 {
		t.Fatalf("duration %d", rec.Duration)
	}
}

// TestDebugTraceFilters exercises ?kind= and ?since= on /debug/trace.
func TestDebugTraceFilters(t *testing.T) {
	ts, _, f := debugServer(t)
	for i, link := range []int{1, 2, 1, 2} {
		kind := "link-down"
		if i >= 2 {
			kind = "link-up"
		}
		if code := postJSON(t, ts.URL+"/observe", repro.ControlEvent{Kind: kind, Link: link}, nil); code != http.StatusAccepted {
			t.Fatalf("observe returned %d", code)
		}
		// Quiesce between posts so each flap is delivered on its own
		// (back-to-back posts may otherwise share one coalesced
		// delivery) and the trace records four observe events.
		f.QuiesceAll()
	}
	getJSON(t, ts.URL+"/advise", new(map[string]any))

	type payload struct {
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	var all payload
	getJSON(t, ts.URL+"/debug/trace", &all)
	if all.Total < 5 || all.Dropped != 0 {
		t.Fatalf("trace: %+v", all)
	}

	var observes payload
	getJSON(t, ts.URL+"/debug/trace?kind=observe", &observes)
	if len(observes.Events) != 4 {
		t.Fatalf("kind=observe returned %d events", len(observes.Events))
	}
	for _, e := range observes.Events {
		if e.Kind != "observe" {
			t.Fatalf("kind filter leaked %+v", e)
		}
	}

	// Incremental read: resume one past the second-to-last seq.
	last := all.Events[len(all.Events)-1].Seq
	var tail payload
	getJSON(t, ts.URL+"/debug/trace?since="+itoa(uint64(last)), &tail)
	if len(tail.Events) != 1 || tail.Events[0].Seq != last {
		t.Fatalf("since=%d: %+v", last, tail.Events)
	}

	// since beyond retention reports drops.
	resp, err := http.Get(ts.URL + "/debug/trace?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since returned %d", resp.StatusCode)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
