// Command dtrd is the long-running control-plane daemon of the routing
// system: it serves a fleet of controller shards — one per network —
// each loading (or building) a configuration library, tracking its
// network's conditions through telemetry events, and serving advice,
// bounded-change migration plans, and Prometheus-style metrics over
// HTTP/JSON. Shards checkpoint durably and restart from snapshot+log
// after a crash, bit-identical to a controller that never crashed.
//
// Usage:
//
//	dtrd -topology rand -nodes 30 -links 180 -build 4 -listen :8484
//	dtrd -topology isp -weights a.json,b.json -listen :8484
//	dtrd -networks 4 -nodes 20 -links 100 -build 3 -listen :8484 \
//	     -checkpoint-dir /var/lib/dtrd -checkpoint-interval 30s
//	dtrd -networks 2 -nodes 20 -links 100 -build 3 -replay   # replay each network's day, print decisions, exit
//
// With -networks N the daemon serves N shards named net0..netN-1, each
// on its own topology (per-network seed offset) with its own library;
// telemetry routes by the events' "network" field and query endpoints
// take ?network= (default net0). GET /fleet/state aggregates the fleet;
// POST /fleet/checkpoint, /fleet/pause, /fleet/resume, /fleet/quiesce
// drive shard lifecycles. SIGTERM drains in two stages: stop accepting,
// deliver everything admitted, then flush a final checkpoint per shard.
//
// See docs/OPERATIONS.md for the full flag and endpoint reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obsv"
)

// options carries every dtrd flag. defineFlags is the single source of
// truth for the flag set; the operations-guide coverage test walks it.
type options struct {
	topology string
	nodes    int
	links    int
	theta    float64
	avgUtil  float64
	seed     int64

	library    string
	libraryOut string
	weights    string
	build      int
	budget     string

	dual       int
	surges     int
	maxChanges int

	networks           int
	checkpointDir      string
	checkpointInterval time.Duration

	intakeCap   int
	intakeRetry time.Duration
	listen      string
	replay      bool
	pprof       bool

	spanCap       int
	traceCap      int
	flightLatency time.Duration
}

// defineFlags registers every dtrd flag on fs and returns the struct
// they parse into.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.topology, "topology", "rand", "topology family: rand|near|pl|isp|hier")
	fs.IntVar(&o.nodes, "nodes", 20, "node count (synthetic topologies)")
	fs.IntVar(&o.links, "links", 100, "directed link count (rand/near)")
	fs.Float64Var(&o.theta, "sla", 25, "SLA delay bound in ms")
	fs.Float64Var(&o.avgUtil, "avgutil", 0, "scale traffic to this average utilization")
	fs.Int64Var(&o.seed, "seed", 1, "random seed (network, scenarios, library build); each extra network offsets it")

	fs.StringVar(&o.library, "library", "", "load a library saved with -library-out (single network only)")
	fs.StringVar(&o.libraryOut, "library-out", "", "write the library as JSON after building (single network only)")
	fs.StringVar(&o.weights, "weights", "", "comma-separated dtropt -weights-out files to serve as the library (single network only)")
	fs.IntVar(&o.build, "build", 3, "build a library of this many configurations from each network's scenario day")
	fs.StringVar(&o.budget, "budget", "quick", "library build budget: quick|std|paper")

	fs.IntVar(&o.dual, "dual", 6, "dual-link failure scenarios in the scenario day")
	fs.IntVar(&o.surges, "surges", 3, "hot-spot surge scenarios in the scenario day")
	fs.IntVar(&o.maxChanges, "max-changes", 5, "weight-change budget per migration stage in replay mode")

	fs.IntVar(&o.networks, "networks", 1, "controller shards to serve, named net0..netN-1, each on its own seed-offset topology with its own library")
	fs.StringVar(&o.checkpointDir, "checkpoint-dir", "", "root directory for durable checkpoints (one <dir>/<network>/ of snapshot + event log per shard); empty disables durability")
	fs.DurationVar(&o.checkpointInterval, "checkpoint-interval", 0, "periodic checkpoint cadence per shard (0: checkpoint only at shutdown and on POST /fleet/checkpoint)")

	fs.IntVar(&o.intakeCap, "intake-cap", 4096, "per-shard intake queue capacity in events; full queues shed whole batches with 429")
	fs.DurationVar(&o.intakeRetry, "intake-retry", time.Second, "Retry-After hint returned with 429 responses")
	fs.StringVar(&o.listen, "listen", "", "HTTP listen address (e.g. :8484); empty with -replay exits after the replay")
	fs.BoolVar(&o.replay, "replay", false, "replay each network's scenario day as telemetry before serving")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")

	fs.IntVar(&o.spanCap, "span-cap", obsv.DefaultSpanCapacity, "span ring capacity (/debug/spans, /debug/trace.chrome); 0 disables span tracing")
	fs.IntVar(&o.traceCap, "trace-cap", 512, "decision-trace ring capacity (/debug/trace)")
	fs.DurationVar(&o.flightLatency, "flightrec-latency", obsv.DefaultFlightLatency, "flight-recorder latency threshold: observe fan-outs slower than this capture a full span dump (/debug/flightrec); 0 disables latency capture")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	// Install the daemon registry before any engine object exists so the
	// library builds, replay and serving all record into it.
	reg := obsv.NewRegistry()
	if o.spanCap > 0 {
		reg.EnableSpans(o.spanCap)
	}
	reg.Trace().Resize(o.traceCap)
	reg.Flight().SetLatencyThreshold(o.flightLatency)
	obsv.SetDefault(reg)

	if o.networks < 1 {
		fatal(fmt.Errorf("-networks %d: need at least one network", o.networks))
	}
	if o.networks > 1 && (o.library != "" || o.libraryOut != "" || o.weights != "") {
		fatal(fmt.Errorf("-library/-library-out/-weights load one network's library; they cannot be combined with -networks %d", o.networks))
	}

	members := make([]member, o.networks)
	fleetMembers := make([]repro.FleetMember, o.networks)
	days := make([]*repro.ScenarioSet, o.networks)
	for i := range members {
		name := fmt.Sprintf("net%d", i)
		// Per-network seed offset: every shard gets its own topology,
		// scenario day and library, deterministically from -seed.
		seed := o.seed + int64(i)*1000
		nw, day, lib := buildNetwork(o, name, seed)
		members[i] = member{name: name, net: nw, lib: lib}
		fleetMembers[i] = repro.FleetMember{Name: name, Net: nw, Library: lib}
		days[i] = day
	}

	fleet, err := repro.NewFleet(fleetMembers, repro.FleetOptions{
		CheckpointDir:      o.checkpointDir,
		CheckpointInterval: o.checkpointInterval,
		IntakeCapacity:     o.intakeCap,
	})
	if err != nil {
		fatal(err)
	}
	if o.checkpointDir != "" {
		for _, sh := range fleet.FleetState().Shards {
			switch {
			case sh.ColdStart:
				fmt.Printf("dtrd: %s cold-started: %s\n", sh.Network, sh.RestoreError)
			case sh.Seq > 0:
				fmt.Printf("dtrd: %s restored to seq %d (%d events replayed from the log)\n", sh.Network, sh.Seq, sh.Replayed)
			}
		}
	}

	if o.replay {
		for i, m := range members {
			replayDay(fleet, m.name, days[i], o.maxChanges)
		}
	}

	if o.listen == "" {
		if !o.replay {
			fmt.Println("dtrd: nothing to do (no -listen, no -replay)")
		}
		// Flush final checkpoints before exiting a replay-only run.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fleet.Close(ctx); err != nil {
			fatal(err)
		}
		return
	}
	srv := newServer(fleet, members, o.intakeRetry, reg)
	srv.enablePprof = o.pprof
	hs := &http.Server{
		Addr:              o.listen,
		Handler:           srv.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("dtrd: listening on %s (%d network(s): %s)\n", ln.Addr(), o.networks, strings.Join(fleet.Networks(), ", "))
	if err := serveAndDrain(hs, ln, fleet, sig); err != nil {
		fatal(err)
	}
	fmt.Println("dtrd: bye")
}

// buildNetwork constructs one member network, its scenario day, and its
// library (loaded from -library/-weights for the single-network case,
// built from the day otherwise).
func buildNetwork(o *options, name string, seed int64) (*repro.Network, *repro.ScenarioSet, *repro.Library) {
	nw, err := repro.NewNetwork(repro.NetworkSpec{
		Topology:   o.topology,
		Nodes:      o.nodes,
		Links:      o.links,
		SLABoundMs: o.theta,
		AvgUtil:    o.avgUtil,
		Seed:       seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dtrd: %s: network %s [%d nodes, %d links], SLA bound %gms\n",
		name, o.topology, nw.Nodes(), nw.Links(), nw.SLABoundMs())

	// The scenario day: single-link failures, sampled dual-link outages,
	// hot-spot surges. It seeds both the library build and replay mode.
	day, err := nw.MergeScenarios("day",
		nw.SingleLinkFailureScenarios(),
		nw.DualLinkFailureScenarios(o.dual, seed+1),
		nw.HotspotSurgeScenarios(true, o.surges, seed+2))
	if err != nil {
		fatal(err)
	}

	var lib *repro.Library
	switch {
	case o.library != "":
		data, err := os.ReadFile(o.library)
		if err != nil {
			fatal(err)
		}
		if lib, err = nw.LibraryFromJSON(data); err != nil {
			fatal(err)
		}
		fmt.Printf("dtrd: loaded library %s (%d configurations)\n", o.library, lib.Size())
	case o.weights != "":
		files := strings.Split(o.weights, ",")
		routings := make([]*repro.Routing, len(files))
		for i, f := range files {
			files[i] = strings.TrimSpace(f)
			data, err := os.ReadFile(files[i])
			if err != nil {
				fatal(err)
			}
			if routings[i], err = nw.RoutingFromJSON(data); err != nil {
				fatal(fmt.Errorf("%s: %w", files[i], err))
			}
		}
		if lib, err = nw.LibraryFromRoutings(files, routings...); err != nil {
			fatal(err)
		}
		fmt.Printf("dtrd: serving %d imported configurations\n", lib.Size())
	default:
		start := time.Now()
		fmt.Printf("dtrd: %s: building a %d-configuration library over %d scenarios (budget %s)...\n",
			name, o.build, day.Size(), o.budget)
		if lib, err = nw.BuildLibrary(day, repro.LibraryOptions{Size: o.build, Budget: o.budget, Seed: seed}); err != nil {
			fatal(err)
		}
		fmt.Printf("dtrd: %s: library ready in %s: %v\n", name, time.Since(start).Round(time.Millisecond), lib.Names())
	}
	if o.libraryOut != "" {
		data, err := json.Marshal(lib)
		if err == nil {
			err = os.WriteFile(o.libraryOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dtrd: library written to %s\n", o.libraryOut)
	}
	return nw, day, lib
}

// serveAndDrain serves until a signal arrives, then shuts down in two
// stages: hs.Shutdown stops accepting connections and waits for
// in-flight handlers (so every batch a handler accepted is queued by
// the time it returns), and fleet.Close then drains every shard's queue
// so every accepted event reaches its selector, flushing a final
// checkpoint per durable healthy shard before the daemon exits — the
// no-lost-events half of the /observe contract, bounded by the same
// shutdown deadline. The soak test drives this exact path with a
// mid-stream SIGTERM.
func serveAndDrain(hs *http.Server, ln net.Listener, fleet *repro.Fleet, sig <-chan os.Signal) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := <-sig
		fmt.Printf("dtrd: %s received, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "dtrd: shutdown:", err)
		}
		if err := fleet.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "dtrd: fleet drain:", err)
		}
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-done
	return nil
}

// replayDay drives one network's controller through every episode of
// its day: onset telemetry, advice, bounded-change migration when a
// switch pays, recovery telemetry.
func replayDay(fleet *repro.Fleet, network string, day *repro.ScenarioSet, maxChanges int) {
	names := day.ScenarioNames()
	switches, stages, rewrites := 0, 0, 0
	start := time.Now()
	for i := 0; i < day.Size(); i++ {
		if err := fleet.ReplayEpisode(network, day, i, true); err != nil {
			fatal(err)
		}
		adv, err := fleet.Advise(network)
		if err != nil {
			fatal(err)
		}
		line := fmt.Sprintf("  %s %-28s -> %s (violations=%d maxutil=%.2f)",
			network, names[i], adv.Name, adv.SLAViolations, adv.MaxUtilization)
		if adv.ShouldSwitch {
			switches++
			for {
				plan, err := fleet.Plan(network, adv.Config, maxChanges)
				if err != nil {
					fatal(err)
				}
				if err := fleet.Apply(network, plan); err != nil {
					fatal(err)
				}
				stages++
				rewrites += len(plan.Steps)
				line += fmt.Sprintf(" [stage: %d changes, viol %d->%d]",
					len(plan.Steps), plan.Start.SLAViolations, plan.Final.SLAViolations)
				if plan.Complete || len(plan.Steps) == 0 {
					break
				}
			}
		}
		fmt.Println(line)
		if err := fleet.ReplayEpisode(network, day, i, false); err != nil {
			fatal(err)
		}
	}
	st, err := fleet.State(network)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dtrd: %s: replayed %d episodes in %s: %d switches, %d migration stages, %d weight rewrites, %d events\n",
		network, day.Size(), time.Since(start).Round(time.Millisecond), switches, stages, rewrites, st.Events)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtrd:", err)
	os.Exit(1)
}
