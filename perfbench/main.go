// Command perfbench is the repository's benchmark. It runs one named
// workload against the programs as shipped — dtrd as a subprocess over
// loopback HTTP, repro.Network.Optimize in-process — checks their
// outputs, and prints the end-to-end metrics (-trace 0) or, from a
// traced in-process repeat of the same inputs, the per-layer metrics
// (-trace 1). The last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it through run.sh, which builds it and dtrd from the checkout:
//
//	bash perfbench/run.sh --workload netday-100 --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is what every workload receives.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dtrd     string // dtrd binary
	work     string // scratch directory inside the checkout
	dir      string // the benchmark's own directory (fixtures)
	smoke    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, r *run) error{
	"netday-100":    runNetday,
	"firehose-4x30": runFirehose,
	"optimize-30":   runOptimize,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: netday-100, firehose-4x30 or optimize-30")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: repeat the workload traced in-process and print the per-layer metrics")
	flag.StringVar(&cfg.dtrd, "dtrd", "", "dtrd binary (run.sh builds it)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for checkpoints and span dumps (run.sh sets it)")
	smoke := flag.Bool("smoke", false, "run every workload untraced and traced for a few seconds each and report pass/fail")
	flag.Parse()
	cfg.trace = trace == 1
	dir, err := os.Getwd()
	if err != nil {
		fatalf("getwd: %v", err)
	}
	cfg.dir = dir
	if cfg.work == "" {
		cfg.work = filepath.Join(os.TempDir(), "perfbench")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatalf("work dir: %v", err)
	}
	if *smoke {
		os.Exit(runSmoke(cfg))
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown workload %q (netday-100, firehose-4x30, optimize-30)", cfg.workload)
	}
	if cfg.seconds < 1 {
		fatalf("-seconds %d: need at least 1", cfg.seconds)
	}
	res, err := execute(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// execute runs one workload and assembles its result object.
func execute(cfg config) (*result, error) {
	r := newRun(cfg)
	start := time.Now()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		return nil, err
	}
	r.note("workload %s finished in %s", cfg.workload, time.Since(start).Round(time.Millisecond))
	return r.result()
}

// runSmoke runs every workload for two seconds, untraced and traced, and
// reports whether each produced a correct, complete result.
func runSmoke(cfg config) int {
	cfg.seconds, cfg.smoke = 2, true
	status := 0
	for _, name := range []string{"netday-100", "firehose-4x30", "optimize-30"} {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, trace
			res, err := execute(c)
			switch {
			case err != nil:
				fmt.Printf("smoke %s trace=%v: FAIL: %v\n", name, trace, err)
				status = 1
			case !res.Correct || res.Failed > 0:
				fmt.Printf("smoke %s trace=%v: FAIL: correct=%v failed=%d\n", name, trace, res.Correct, res.Failed)
				status = 1
			default:
				fmt.Printf("smoke %s trace=%v: ok (%d metrics)\n", name, trace, len(res.Metrics))
			}
		}
	}
	return status
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
