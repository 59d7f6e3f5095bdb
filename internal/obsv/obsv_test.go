package obsv

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	c.Set(7)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Trace() != nil {
		t.Fatal("nil registry must have a nil trace")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry render: err=%v len=%d", err, buf.Len())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	c := r.Counter("x_total", "x", L("k", "w"))
	if a == c {
		t.Fatal("different label values must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// v==bound lands in the le=bound bucket (le is inclusive); buckets
	// are cumulative.
	for _, line := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 106`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestPrometheusEscapingAndLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("odd_total", "help with \\ and\nnewline", L("path", `/metrics"x\y`+"\n")).Inc()
	r.Gauge("g", "gauge").Set(2.5)
	r.Histogram("h_seconds", "hist", []float64{0.1, 1}, L("class", "link")).Observe(0.05)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `odd_total{path="/metrics\"x\\y\n"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `# HELP odd_total help with \\ and\nnewline`) {
		t.Fatalf("HELP escaping wrong:\n%s", out)
	}
	if errs := LintExposition(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("lint rejected renderer output: %v", errs)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"missing TYPE":     "# HELP a_total ok\na_total 1\n",
		"missing HELP":     "# TYPE a_total counter\na_total 1\n",
		"duplicate series": "# HELP a ok\n# TYPE a gauge\na{k=\"v\"} 1\na{k=\"v\"} 2\n",
		"go-quoted label":  "# HELP a ok\n# TYPE a gauge\na{k=\"\\x00\"} 1\n",
		"bad value":        "# HELP a ok\n# TYPE a gauge\na one\n",
		"bad label name":   "# HELP a ok\n# TYPE a gauge\na{0k=\"v\"} 1\n",
		"bad TYPE kind":    "# HELP a ok\n# TYPE a meter\na 1\n",
	}
	for name, payload := range cases {
		if errs := LintExposition([]byte(payload)); len(errs) == 0 {
			t.Errorf("%s: lint accepted %q", name, payload)
		}
	}
	clean := "# HELP a_total ok\n# TYPE a_total counter\na_total{k=\"v\"} 1\na_total{k=\"w\"} 2\n"
	if errs := LintExposition([]byte(clean)); len(errs) != 0 {
		t.Errorf("lint rejected clean payload: %v", errs)
	}
}

func TestViewRebindsOnDefaultChange(t *testing.T) {
	type met struct{ c *Counter }
	builds := 0
	v := NewView(func(r *Registry) *met {
		builds++
		return &met{c: r.Counter("v_total", "")}
	})
	SetDefault(nil)
	defer SetDefault(nil)
	if v.Get() != nil {
		t.Fatal("no default installed: Get must return nil")
	}
	r1 := NewRegistry()
	SetDefault(r1)
	m := v.Get()
	m.c.Inc()
	if v.Get() != m || builds != 1 {
		t.Fatalf("view must cache per registry (builds=%d)", builds)
	}
	r2 := NewRegistry()
	SetDefault(r2)
	m2 := v.Get()
	if m2 == m || builds != 2 {
		t.Fatalf("view must rebuild on registry change (builds=%d)", builds)
	}
	m2.c.Inc()
	if r1.Counter("v_total", "").Value() != 1 || r2.Counter("v_total", "").Value() != 1 {
		t.Fatal("views must write to their bound registry")
	}
}

// TestRenderUnderConcurrentRegistration renders both formats while
// other goroutines register new series in the family being rendered,
// as a scrape does while a shard's first events register their series.
// Under -race it checks that a render never shares a slice with
// registration; once quiet, both formats list every series.
func TestRenderUnderConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("reg_total", "", L("id", strconv.Itoa(w*perWriter+i))).Inc()
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	wg.Wait()

	if snap := r.Snapshot(); len(snap.Metrics) != 1 {
		t.Fatalf("snapshot lists %d families, want 1", len(snap.Metrics))
	} else if n := len(snap.Metrics[0].Series); n != writers*perWriter {
		t.Fatalf("snapshot lists %d series, want %d", n, writers*perWriter)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\nreg_total{"); n != writers*perWriter {
		t.Fatalf("exposition lists %d series, want %d", n, writers*perWriter)
	}
}

// TestSnapshotUnderConcurrentBumps takes snapshots while writers bump a
// counter, a gauge and a histogram, checking that every observed value
// is internally sane and monotone across snapshots, and that the final
// quiesced snapshot is exact.
func TestSnapshotUnderConcurrentBumps(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 5000
	c := r.Counter("bump_total", "")
	g := r.Gauge("level", "")
	h := r.Histogram("obs", "", []float64{1, 2})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 3))
			}
		}()
	}

	var lastCount, lastHist int64
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		for _, m := range snap.Metrics {
			switch m.Name {
			case "bump_total":
				v := int64(*m.Series[0].Value)
				if v < lastCount {
					t.Fatalf("counter went backwards: %d -> %d", lastCount, v)
				}
				lastCount = v
			case "obs":
				v := *m.Series[0].Count
				if v < lastHist {
					t.Fatalf("histogram count went backwards: %d -> %d", lastHist, v)
				}
				lastHist = v
				// Cumulative buckets must be non-decreasing.
				var prev int64 = -1
				for _, b := range m.Series[0].Buckets {
					if b.Count < prev {
						t.Fatalf("bucket counts not cumulative: %+v", m.Series[0].Buckets)
					}
					prev = b.Count
				}
			}
		}
	}
	wg.Wait()

	total := int64(writers * perWriter)
	snap := r.Snapshot()
	for _, m := range snap.Metrics {
		switch m.Name {
		case "bump_total":
			if int64(*m.Series[0].Value) != total {
				t.Errorf("final counter = %v, want %d", *m.Series[0].Value, total)
			}
		case "level":
			if *m.Series[0].Value != float64(total) {
				t.Errorf("final gauge = %v, want %d", *m.Series[0].Value, total)
			}
		case "obs":
			if *m.Series[0].Count != total {
				t.Errorf("final histogram count = %d, want %d", *m.Series[0].Count, total)
			}
			if last := m.Series[0].Buckets[len(m.Series[0].Buckets)-1]; last.Count != total {
				t.Errorf("final +Inf bucket = %d, want %d", last.Count, total)
			}
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"bump_total"`) {
		t.Error("JSON snapshot missing bump_total")
	}
}
