package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro"
	"repro/internal/obsv"
)

// member is one served network: its routing key, topology and library.
type member struct {
	name string
	net  *repro.Network
	lib  *repro.Library
}

// server wraps the controller fleet behind an HTTP/JSON API. The fleet
// is internally synchronized; all daemon telemetry — request counters,
// per-path latency histograms, per-network controller state gauges, and
// every engine-level metric — lives in one obsv.Registry, and /metrics
// is rendered entirely by the obsv exposition writer.
type server struct {
	fleet      *repro.Fleet
	members    []member
	retryAfter time.Duration
	start      time.Time
	reg        *obsv.Registry
	rt         *obsv.RuntimeMetrics

	applied *obsv.Counter

	// enablePprof mounts net/http/pprof under /debug/pprof/ (opt-in:
	// profiling endpoints stay off unless the operator asks).
	enablePprof bool
}

// newServer builds the daemon server on reg; a nil registry gets a
// private one so the endpoints always work.
func newServer(fleet *repro.Fleet, members []member, retryAfter time.Duration, reg *obsv.Registry) *server {
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &server{
		fleet:      fleet,
		members:    members,
		retryAfter: retryAfter,
		start:      time.Now(),
		reg:        reg,
		rt:         obsv.NewRuntimeMetrics(reg),
		applied: reg.Counter("dtrd_weight_changes_applied_total",
			"Link weight rewrites applied via /apply."),
	}
}

// route is one row of the daemon's route table: HTTP method, mux
// pattern, and the handler as a method expression. pprof rows mount
// only with -pprof and skip the count middleware (their sub-paths would
// make the path label unbounded).
type route struct {
	method  string
	pattern string
	pprof   bool
	handler func(*server, http.ResponseWriter, *http.Request)
}

// routeTable is the single source of truth for the daemon's endpoints;
// mux serves it and the operations-guide coverage test walks it.
var routeTable = []route{
	{"GET", "/healthz", false, (*server).handleHealthz},
	{"GET", "/state", false, (*server).handleState},
	{"GET", "/config", false, (*server).handleConfig},
	{"GET", "/advise", false, (*server).handleAdvise},
	{"POST", "/observe", false, (*server).handleObserve},
	{"POST", "/plan", false, (*server).handlePlan},
	{"POST", "/apply", false, (*server).handleApply},
	{"GET", "/fleet/state", false, (*server).handleFleetState},
	{"POST", "/fleet/checkpoint", false, (*server).handleFleetCheckpoint},
	{"POST", "/fleet/pause", false, (*server).handleFleetPause},
	{"POST", "/fleet/resume", false, (*server).handleFleetResume},
	{"POST", "/fleet/quiesce", false, (*server).handleFleetQuiesce},
	{"GET", "/metrics", false, (*server).handleMetrics},
	{"GET", "/metrics.json", false, (*server).handleMetricsJSON},
	{"GET", "/debug/trace", false, (*server).handleTrace},
	{"GET", "/debug/spans", false, (*server).handleSpans},
	{"GET", "/debug/flightrec", false, (*server).handleFlightRec},
	{"GET", "/debug/trace.chrome", false, (*server).handleChromeTrace},
	{"GET", "/debug/pprof/", true, func(_ *server, w http.ResponseWriter, r *http.Request) { pprof.Index(w, r) }},
	{"GET", "/debug/pprof/cmdline", true, func(_ *server, w http.ResponseWriter, r *http.Request) { pprof.Cmdline(w, r) }},
	{"GET", "/debug/pprof/profile", true, func(_ *server, w http.ResponseWriter, r *http.Request) { pprof.Profile(w, r) }},
	{"GET", "/debug/pprof/symbol", true, func(_ *server, w http.ResponseWriter, r *http.Request) { pprof.Symbol(w, r) }},
	{"GET", "/debug/pprof/trace", true, func(_ *server, w http.ResponseWriter, r *http.Request) { pprof.Trace(w, r) }},
}

// mux returns the daemon's route table as a ServeMux.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		if rt.pprof && !s.enablePprof {
			continue
		}
		h := rt.handler
		hf := func(w http.ResponseWriter, r *http.Request) { h(s, w, r) }
		if rt.pprof {
			mux.HandleFunc(rt.method+" "+rt.pattern, hf)
		} else {
			mux.HandleFunc(rt.method+" "+rt.pattern, s.count(hf))
		}
	}
	return mux
}

// count is the request middleware: per-path request counter and latency
// histogram. The route table is fixed, so path label cardinality is
// bounded by the mux patterns.
func (s *server) count(h http.HandlerFunc) http.HandlerFunc {
	const reqHelp = "HTTP requests served."
	const latHelp = "HTTP request latency by path."
	return func(w http.ResponseWriter, r *http.Request) {
		path := obsv.L("path", r.URL.Path)
		s.reg.Counter("dtrd_http_requests_total", reqHelp, path).Inc()
		t0 := time.Now()
		h(w, r)
		s.reg.Histogram("dtrd_http_request_seconds", latHelp, obsv.LatencyBuckets, path).ObserveSince(t0)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// fleetErrCode maps fleet errors to HTTP statuses: a network no member
// serves is 404, a shard rebuilding after a crash (or a closed fleet)
// is 503 retryable, anything else is the caller's fault.
func fleetErrCode(err error) int {
	switch {
	case errors.Is(err, repro.ErrUnknownNetwork):
		return http.StatusNotFound
	case errors.Is(err, repro.ErrShardDown), errors.Is(err, repro.ErrIntakeClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// network extracts the ?network= query parameter ("" = the fleet's
// default network).
func network(r *http.Request) string { return r.URL.Query().Get("network") }

// memberFor resolves a network name to its member ("" = the default).
func (s *server) memberFor(name string) (member, error) {
	if name == "" {
		return s.members[0], nil
	}
	for _, m := range s.members {
		if m.name == name {
			return m, nil
		}
	}
	// Resolve through the fleet so the rejection is counted and the
	// error names the known networks.
	_, err := s.fleet.Library(name)
	return member{}, err
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "networks": s.fleet.Networks()})
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	st, err := s.fleet.State(network(r))
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	writeJSON(w, st)
}

func (s *server) handleConfig(w http.ResponseWriter, r *http.Request) {
	m, err := s.memberFor(network(r))
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	writeJSON(w, map[string]any{
		"network":      m.name,
		"networks":     s.fleet.Networks(),
		"nodes":        m.net.Nodes(),
		"links":        m.net.Links(),
		"sla_bound_ms": m.net.SLABoundMs(),
		"configs":      m.lib.Names(),
	})
}

func (s *server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	adv, err := s.fleet.Advise(network(r))
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	writeJSON(w, adv)
}

// handleObserve admits telemetry into the per-network intake queues:
// the body is one JSON event or an array of them, validated whole —
// including each event's "network" routing key — and then queued.
// 202 means every event was accepted and will reach its network's
// selector in order; admission is all-or-nothing per network, so a full
// queue sheds only that network's sub-batch (429 + Retry-After, shed
// networks listed) and a crash-restarting shard rejects only its own
// (503, down networks listed); 400 rejects malformed bodies and unknown
// networks before any admission.
func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxObserveBytes)
	events, err := decodeObserveBody(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.fleet.Enqueue(events)
	switch {
	case errors.Is(err, repro.ErrIntakeFull):
		secs := int(s.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{
			"error":    err.Error(),
			"accepted": res.Accepted,
			"shed":     res.Shed,
			"down":     res.Down,
		})
		return
	case errors.Is(err, repro.ErrShardDown):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{
			"error":    err.Error(),
			"accepted": res.Accepted,
			"down":     res.Down,
		})
		return
	case errors.Is(err, repro.ErrIntakeClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body := map[string]any{
		"status":              "accepted",
		"accepted":            res.Accepted,
		"last_seq_by_network": res.LastSeq,
	}
	// One network in the batch keeps the scalar ack older clients read.
	if len(res.LastSeq) == 1 {
		for _, seq := range res.LastSeq {
			body["last_seq"] = seq
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(body)
}

type planRequest struct {
	Network    string `json:"network"`
	Target     int    `json:"target"`
	MaxChanges int    `json:"max_changes"`
}

// maxPlanBytes caps the /plan and /apply request bodies: a plan request
// is three short fields.
const maxPlanBytes = 4 << 10

// decodePlanRequest decodes a /plan or /apply body of at most
// maxPlanBytes.
func decodePlanRequest(w http.ResponseWriter, r *http.Request) (planRequest, error) {
	var req planRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPlanBytes)).Decode(&req)
	return req, err
}

// planNetwork picks the request's network: the body field wins, then
// the ?network= query parameter, then the fleet default.
func planNetwork(req planRequest, r *http.Request) string {
	if req.Network != "" {
		return req.Network
	}
	return network(r)
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	req, err := decodePlanRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode plan request: %w", err))
		return
	}
	plan, err := s.fleet.Plan(planNetwork(req, r), req.Target, req.MaxChanges)
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	writeJSON(w, plan)
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request) {
	req, err := decodePlanRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode apply request: %w", err))
		return
	}
	name := planNetwork(req, r)
	plan, err := s.fleet.Plan(name, req.Target, req.MaxChanges)
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	if err := s.fleet.Apply(name, plan); err != nil {
		// The only failure here is a lost race: another apply changed
		// the deployed weights between this handler's plan and commit.
		writeError(w, http.StatusConflict, err)
		return
	}
	s.applied.Add(int64(len(plan.Steps)))
	writeJSON(w, plan)
}

// handleFleetState serves the aggregated fleet view: every shard's
// lifecycle, durability and controller state plus rolled-up totals.
func (s *server) handleFleetState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.FleetState())
}

// fleetLifecycle runs one lifecycle operation against one shard
// (?network=present, even empty = the default network) or the whole
// fleet (parameter absent).
func (s *server) fleetLifecycle(w http.ResponseWriter, r *http.Request, op string, one func(string) error, all func() error) {
	target := "all"
	var err error
	if r.URL.Query().Has("network") {
		m, merr := s.memberFor(network(r))
		if merr != nil {
			writeError(w, fleetErrCode(merr), merr)
			return
		}
		target = m.name
		err = one(m.name)
	} else {
		err = all()
	}
	if err != nil {
		writeError(w, fleetErrCode(err), err)
		return
	}
	writeJSON(w, map[string]string{"status": "ok", "op": op, "network": target})
}

// handleFleetCheckpoint quiesces and snapshots one shard or every
// shard. Fails with 400 when the daemon runs without -checkpoint-dir.
func (s *server) handleFleetCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.fleetLifecycle(w, r, "checkpoint", s.fleet.Checkpoint, s.fleet.CheckpointAll)
}

// handleFleetPause holds deliveries on one shard or every shard;
// admissions continue to queue up to the intake capacity.
func (s *server) handleFleetPause(w http.ResponseWriter, r *http.Request) {
	s.fleetLifecycle(w, r, "pause", s.fleet.Pause, s.fleet.PauseAll)
}

// handleFleetResume restarts deliveries after a pause.
func (s *server) handleFleetResume(w http.ResponseWriter, r *http.Request) {
	s.fleetLifecycle(w, r, "resume", s.fleet.Resume, s.fleet.ResumeAll)
}

// handleFleetQuiesce blocks until every accepted event has reached its
// selector — on one shard or fleet-wide.
func (s *server) handleFleetQuiesce(w http.ResponseWriter, r *http.Request) {
	s.fleetLifecycle(w, r, "quiesce", s.fleet.Quiesce, func() error {
		s.fleet.QuiesceAll()
		return nil
	})
}

// refreshStateMetrics mirrors every shard's controller state and the Go
// runtime's introspection gauges into the registry, network-labeled.
// Registration is idempotent, so the scrape-time cost is a handful of
// map lookups. A shard mid-restart keeps its last exported values.
func (s *server) refreshStateMetrics() {
	s.rt.Refresh()
	s.fleet.RefreshMetrics()
	s.reg.Gauge("dtrd_uptime_seconds", "Daemon uptime.").
		Set(time.Since(s.start).Seconds())
	for _, m := range s.members {
		st, err := s.fleet.State(m.name)
		if err != nil {
			continue
		}
		nl := obsv.L("network", m.name)
		s.reg.Counter("dtrd_events_total", "Telemetry events consumed.", nl).
			Set(int64(st.Events))
		s.reg.Gauge("dtrd_active_config", "Index of the deployed configuration (-1 mid-migration).", nl).
			Set(float64(st.Active))
		s.reg.Gauge("dtrd_down_links", "Links currently observed down.", nl).
			Set(float64(len(st.DownLinks)))
		s.reg.Gauge("dtrd_deployed_sla_violations", "SLA violations of the deployed routing under current conditions.", nl).
			Set(float64(st.Deployed.SLAViolations))
		s.reg.Gauge("dtrd_deployed_max_utilization", "Peak link utilization of the deployed routing.", nl).
			Set(st.Deployed.MaxUtilization)
		for _, c := range st.Configs {
			s.reg.Gauge("dtrd_config_sla_violations",
				"Per-configuration SLA violations under current conditions.",
				obsv.L("config", c.Name), nl).Set(float64(c.SLAViolations))
		}
	}
}

// handleMetrics exposes the whole registry — daemon gauges refreshed at
// scrape time plus every engine metric — in Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshStateMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// handleMetricsJSON serves the same registry as a JSON snapshot — the
// artifact format `-metrics-out` writes in the offline tools.
func (s *server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.refreshStateMetrics()
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// handleTrace serves the bounded decision-trace ring (selector observe/
// advise/plan records), oldest first. ?kind= keeps only events of that
// kind; ?since=<seq> resumes an incremental read — pass one past the
// last seq seen, and a non-zero "dropped" reports how many events the
// ring evicted before the read could catch up.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.Trace()
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q: %w", v, err))
			return
		}
		since = n
	}
	var dropped uint64
	if oldest := tr.OldestSeq(); oldest > since {
		dropped = oldest - since
	}
	events := tr.EventsSince(since)
	if kind := r.URL.Query().Get("kind"); kind != "" {
		kept := events[:0]
		for _, e := range events {
			if e.Kind == kind {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	writeJSON(w, map[string]any{
		"total":    tr.Total(),
		"retained": len(events),
		"dropped":  dropped,
		"events":   events,
	})
}

// handleSpans serves the span-recorder ring, oldest first. ?trace=
// keeps one trace's spans; ?limit= keeps only the newest N.
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	rec := s.reg.Spans()
	if rec == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("span tracing disabled (-span-cap 0)"))
		return
	}
	var spans []obsv.SpanRecord
	if v := r.URL.Query().Get("trace"); v != "" {
		trace, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace %q: %w", v, err))
			return
		}
		spans = rec.TraceSpans(trace)
	} else {
		spans = rec.Spans()
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		if n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	writeJSON(w, map[string]any{
		"total":    rec.Total(),
		"capacity": rec.Capacity(),
		"retained": len(spans),
		"spans":    spans,
	})
}

// handleFlightRec serves the anomaly flight recorder: complete span
// dumps of updates that blew the latency threshold, degraded the SLA,
// or blocked a migration plan.
func (s *server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	fr := s.reg.Flight()
	records := fr.Records()
	writeJSON(w, map[string]any{
		"total":        fr.Total(),
		"retained":     len(records),
		"threshold_ns": int64(fr.LatencyThreshold()),
		"records":      records,
	})
}

// handleChromeTrace exports the span ring (or one trace of it, ?trace=)
// as Chrome trace-event JSON: load it in chrome://tracing or Perfetto;
// per-worker task spans land on their own tracks.
func (s *server) handleChromeTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.reg.Spans()
	if rec == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("span tracing disabled (-span-cap 0)"))
		return
	}
	var spans []obsv.SpanRecord
	if v := r.URL.Query().Get("trace"); v != "" {
		trace, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace %q: %w", v, err))
			return
		}
		spans = rec.TraceSpans(trace)
	} else {
		spans = rec.Spans()
	}
	w.Header().Set("Content-Type", "application/json")
	obsv.WriteChromeTrace(w, spans)
}
