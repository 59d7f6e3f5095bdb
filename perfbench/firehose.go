package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/scenario"
)

// firehose-4x30: dtrd serves four 30-node/180-link RandTopo networks
// whose libraries it builds itself at its defaults, checkpointing every
// few seconds, fed a high-rate open-loop stream of 256-event batches.
const (
	firehoseNetworks = 4
	// firehoseRate is the offered load in events per second, over all
	// networks.
	firehoseRate  = 40000.0
	firehoseBatch = 256
	// firehoseCheckpoint is the -checkpoint-interval passed to dtrd.
	firehoseCheckpoint = 3 * time.Second
	// dtrd's defaults for the libraries it builds: -build 3 -budget quick.
	dtrdBuild  = 3
	dtrdBudget = "quick"
)

// firehoseSpec returns network i as dtrd -seed 1 builds it (seed offset
// 1000 per network).
func firehoseSpec(i int) netSpec { return netSpec{nodes: 30, links: 180, seed: 1 + int64(i)*1000} }

func firehoseName(i int) string { return fmt.Sprintf("net%d", i) }

// firehoseStream is one network's rendered stream, flattened: passLen
// events per pass over the scenario day, every pass healing to base.
type firehoseStream struct {
	events  []scenario.Event
	passLen int
}

// firehoseInputs renders every network's stream, long enough for the
// window, and the merged request schedule: batches round-robin across
// networks, one every firehoseBatch/firehoseRate seconds.
func firehoseInputs(cfg config, reps []*replica) ([]firehoseStream, []*request) {
	perNet := int(firehoseRate * float64(cfg.seconds) / firehoseBatch / firehoseNetworks)
	streams := make([]firehoseStream, len(reps))
	batches := make([][]scenario.TimedBatch, len(reps))
	for i, rep := range reps {
		day := rep.scenarioDay()
		passLen := len(scenario.Events(rep.g, day))
		repeat := perNet*firehoseBatch/passLen + 1
		batches[i] = scenario.Firehose(rep.g, day, scenario.FirehoseConfig{BatchEvents: firehoseBatch, Repeat: repeat, Seed: cfg.seed + int64(i)})
		streams[i].passLen = passLen
	}
	gap := time.Duration(float64(time.Second) * firehoseBatch / firehoseRate)
	var reqs []*request
	for k := 0; k < perNet; k++ {
		for i := range reps {
			b := batches[i][k]
			idx := len(reqs)
			streams[i].events = append(streams[i].events, b.Events...)
			reqs = append(reqs, newRequest(idx, time.Duration(idx)*gap, firehoseName(i), "mixed", b.Events))
		}
	}
	return streams, reqs
}

// firehoseLibraries builds each network's library in-process with the
// options dtrd uses at its defaults.
func firehoseLibraries(nws []*repro.Network, reps []*replica) ([]*repro.Library, error) {
	libs := make([]*repro.Library, len(nws))
	for i, nw := range nws {
		day, err := nw.MergeScenarios("day",
			nw.SingleLinkFailureScenarios(),
			nw.DualLinkFailureScenarios(6, reps[i].spec.seed+1),
			nw.HotspotSurgeScenarios(true, 3, reps[i].spec.seed+2))
		if err != nil {
			return nil, err
		}
		if libs[i], err = nw.BuildLibrary(day, repro.LibraryOptions{Size: dtrdBuild, Budget: dtrdBudget, Seed: reps[i].spec.seed, Workers: 1}); err != nil {
			return nil, err
		}
	}
	return libs, nil
}

// cachedLibraries returns the in-process rebuild of every network's
// library. Building them costs as much as dtrd's set-up, so the rebuild
// is kept under the work directory, keyed by a digest of the checkout's
// sources: a library is a deterministic function of the code and the
// network. A traced run always rebuilds, times the build and checks it
// against the cache.
func cachedLibraries(cfg config, r *run, nws []*repro.Network, reps []*replica) ([]*repro.Library, error) {
	path := filepath.Join(cfg.work, "firehose-libraries-"+sourceDigest(filepath.Dir(cfg.dir))+".json")
	var cached []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &cached); err != nil || len(cached) != len(nws) {
			cached = nil
		}
	}
	if cached != nil && !cfg.trace {
		libs := make([]*repro.Library, len(nws))
		for i, nw := range nws {
			var err error
			if libs[i], err = nw.LibraryFromJSON(cached[i]); err != nil {
				return nil, fmt.Errorf("cached library: %w", err)
			}
		}
		return libs, nil
	}
	t0 := time.Now()
	libs, err := firehoseLibraries(nws, reps)
	if err != nil {
		return nil, err
	}
	r.set("opt.library_build_s", time.Since(t0).Seconds())
	built := make([]json.RawMessage, len(libs))
	for i, lib := range libs {
		if built[i], err = json.Marshal(lib); err != nil {
			return nil, err
		}
	}
	if cached != nil {
		r.check("library rebuild matches cache", sameLibraries(built, cached))
	}
	data, err := json.Marshal(built)
	if err != nil {
		return nil, err
	}
	return libs, os.WriteFile(path, data, 0o644)
}

func sameLibraries(a, b []json.RawMessage) error {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return fmt.Errorf("library %d differs from the cached rebuild", i)
		}
	}
	return nil
}

func runFirehose(cfg config, r *run) error {
	reps := make([]*replica, firehoseNetworks)
	nws := make([]*repro.Network, firehoseNetworks)
	for i := range reps {
		var err error
		if reps[i], err = newReplica(firehoseSpec(i)); err != nil {
			return err
		}
		if nws[i], err = repro.NewNetwork(firehoseSpec(i).facade()); err != nil {
			return err
		}
		r.check(fmt.Sprintf("replica %s matches facade", firehoseName(i)), checkReplica(reps[i], nws[i]))
	}
	streams, reqs := firehoseInputs(cfg, reps)

	// One set-up builds four libraries (about 20s on 2 cores), so it is
	// repeated only twice, and only where setup_s is printed.
	starts := 2
	if cfg.smoke || cfg.trace {
		starts = 1
	}
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	d, setup, err := startRepeated(cfg, starts, 150*time.Second, func() ([]string, error) {
		dir, err := os.MkdirTemp(cfg.work, "checkpoints-")
		dirs = append(dirs, dir)
		return []string{"-topology", "rand", "-nodes", "30", "-links", "180", "-seed", "1",
			"-networks", fmt.Sprint(firehoseNetworks),
			"-checkpoint-dir", dir, "-checkpoint-interval", firehoseCheckpoint.String()}, err
	})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	r.set("setup_s", setup)
	r.note("firehose-4x30: dtrd set-up (4 library builds) %.2fs", setup)
	tele, ctl := newClient(), newClient()
	defer tele.close()
	defer ctl.close()

	libs, err := cachedLibraries(cfg, r, nws, reps)
	if err != nil {
		return err
	}
	oracles := make([]*repro.Controller, firehoseNetworks)
	for i := range oracles {
		if oracles[i], err = nws[i].NewController(libs[i]); err != nil {
			return err
		}
		r.check(fmt.Sprintf("config scores match rebuild %s", firehoseName(i)), compareConfigs(ctl, d.base, firehoseName(i), oracles[i].State()))
	}

	w, err := measureServing(cfg, r, d, tele, ctl, reqs)
	if err != nil {
		return err
	}

	for i := range oracles {
		name := firehoseName(i)
		events, err := firehoseOracleEvents(streams[i], reqs, name)
		if err != nil {
			r.check("final state matches oracle "+name, err)
			continue
		}
		r.check("final state matches oracle "+name, compareOracle(ctl, d.base, name, oracles[i], events))
	}
	if err := daemonTotals(r, ctl, d); err != nil {
		return err
	}
	r.check("dtrd exits 0 on SIGTERM", d.stop())
	d = nil
	if cfg.trace {
		return traceFirehose(cfg, r, reps, nws, libs, reqs, w.ttaOf("").p50())
	}
	return nil
}

// firehoseOracleEvents returns what the oracle must be fed so that its
// state equals sequential delivery of the network's admitted events.
// When every batch was admitted, the admitted events are a prefix of
// the stream; every complete pass over the day heals back to the base
// state (scenario.Firehose), so feeding the events after the last pass
// boundary to a fresh controller gives the same state.
func firehoseOracleEvents(s firehoseStream, reqs []*request, network string) ([]repro.ControlEvent, error) {
	n := 0
	for _, rq := range reqs {
		if rq.network != network {
			continue
		}
		if !rq.admitted() {
			return nil, fmt.Errorf("a %s batch was refused; the stream is no longer a prefix", network)
		}
		n += rq.events
	}
	start := n / s.passLen * s.passLen
	return wire(s.events[start:n], network), nil
}
