package main

import (
	"flag"
	"runtime"
	"testing"
)

// TestWorkersFlagResolvesGOMAXPROCS pins the -workers resolution that
// both the library builds and the fleet's serving sessions receive:
// 0 (and any negative value) means GOMAXPROCS, as the flag and
// docs/OPERATIONS.md say, never the serial default of
// LibraryOptions.Workers.
func TestWorkersFlagResolvesGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 1},
		{[]string{"-workers", "0"}, procs},
		{[]string{"-workers", "-2"}, procs},
		{[]string{"-workers", "1"}, 1},
		{[]string{"-workers", "3"}, 3},
	} {
		o, err := parseFlags(flag.NewFlagSet("dtrd", flag.ContinueOnError), tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if o.workers != tc.want {
			t.Errorf("%v: workers = %d, want %d", tc.args, o.workers, tc.want)
		}
	}
}
