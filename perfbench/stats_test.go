package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: newDist must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist(seq(10))
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}, {0, 1},
	} {
		if got := d.at(c.q); got != c.want {
			t.Errorf("at(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := dist(nil).at(0.5); got != 0 {
		t.Errorf("empty at(0.5) = %g, want 0", got)
	}
}

func TestTailSampleCountRule(t *testing.T) {
	// p99 of 1000 samples leaves exactly 10 beyond it; of 999 it would
	// leave 9, so the tail steps down to the highest percentile that
	// keeps 10.
	if v, share := newDist(seq(1000)).tail(); v != 990 || share != 0.99 {
		t.Errorf("tail of 1000 = %g at %g, want 990 at 0.99", v, share)
	}
	if v, share := newDist(seq(999)).tail(); v != 989 || share >= 0.99 {
		t.Errorf("tail of 999 = %g at %g, want 989 below p99", v, share)
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, pct  float64
		wantBeyond int
	}{
		{2000, 1980, 0.99, 20},      // p99, 20 beyond
		{1000, 990, 0.99, 10},       // p99, exactly 10 beyond
		{600, 590, 590.0 / 600, 10}, // highest percentile keeping 10 beyond
		{11, 1, 1.0 / 11, 10},
		{10, 10, 1, 0}, // too few: the maximum
	} {
		d := newDist(seq(c.n))
		v, share := d.tail()
		if v != c.want || math.Abs(share-c.pct) > 1e-12 {
			t.Errorf("tail of %d = %g at %g, want %g at %g", c.n, v, share, c.want, c.pct)
		}
		beyond := 0
		for _, x := range d {
			if x > v {
				beyond++
			}
		}
		if beyond != c.wantBeyond {
			t.Errorf("tail of %d leaves %d beyond, want %d", c.n, beyond, c.wantBeyond)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := newDist([]float64{1, 2, 3, 6}).mean(); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=150, stime=25 ticks.
	stat := "4242 (dtrd (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 25 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1750 * time.Millisecond; got != want {
		t.Errorf("parseStatCPU = %s, want %s", got, want)
	}
	if _, err := parseStatCPU("4242 (dtrd) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Error("stat line without a command parsed")
	}
}

func TestParseHWM(t *testing.T) {
	status := "Name:\tdtrd\nVmPeak:\t  900000 kB\nVmHWM:\t   102400 kB\nVmRSS:\t   51200 kB\n"
	got, err := parseHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("parseHWM = %g MiB, want 100", got)
	}
	if _, err := parseHWM("Name:\tdtrd\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("VmHWM in an unknown unit parsed")
	}
}

func TestCPUAccounting(t *testing.T) {
	if got := cpuPerEvent(3*time.Millisecond, 1000); got != 3 {
		t.Errorf("cpuPerEvent = %g µs, want 3", got)
	}
	if got := cpuPerEvent(time.Second, 0); got != 0 {
		t.Errorf("cpuPerEvent with no events = %g, want 0", got)
	}
	// The harness's own CPU clock advances with work and never runs
	// backwards.
	before := selfCPU()
	x := 0.0
	for i := 0; i < 5_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if after := selfCPU(); after <= before || x == 0 {
		t.Errorf("selfCPU did not advance over busy work: %s -> %s", before, after)
	}
}

func TestSelfProcReadable(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatalf("procCPU(self): %v", err)
	}
	if mb, err := procPeakRSS(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("procPeakRSS(self) = %g, %v", mb, err)
	}
}
