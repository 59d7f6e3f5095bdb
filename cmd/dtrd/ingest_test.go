package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/obsv"
)

// postRaw posts a raw body and returns the response (caller closes).
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestObserveBatchEndpoint drives the batch wire form: a JSON array of
// events is admitted whole, the response reports the accepted count and
// a monotonic last_seq, and after a quiesce the state reflects every
// event in order.
func TestObserveBatchEndpoint(t *testing.T) {
	ts, _, f := testServer(t)

	batch := []repro.ControlEvent{
		{Kind: "link-down", Link: 3},
		{Kind: "link-down", Link: 5},
		{Kind: "link-up", Link: 3}, // supersedes: coalesced away in delivery
	}
	var ack struct {
		Status   string `json:"status"`
		Accepted int    `json:"accepted"`
		LastSeq  uint64 `json:"last_seq"`
	}
	if code := postJSON(t, ts.URL+"/observe", batch, &ack); code != http.StatusAccepted {
		t.Fatalf("batch observe returned %d", code)
	}
	if ack.Status != "accepted" || ack.Accepted != 3 || ack.LastSeq != 3 {
		t.Fatalf("ack %+v", ack)
	}
	f.QuiesceAll()
	var st repro.ControllerState
	getJSON(t, ts.URL+"/state", &st)
	if len(st.DownLinks) != 1 || st.DownLinks[0] != 5 {
		t.Fatalf("state after batch: %+v", st)
	}

	// last_seq keeps counting across posts.
	if code := postJSON(t, ts.URL+"/observe", []repro.ControlEvent{{Kind: "link-up", Link: 5}}, &ack); code != http.StatusAccepted {
		t.Fatalf("second batch returned %d", code)
	}
	if ack.Accepted != 1 || ack.LastSeq != 4 {
		t.Fatalf("second ack %+v", ack)
	}
	f.QuiesceAll()

	// A malformed event anywhere rejects the whole batch: nothing is
	// admitted and the selector never sees the valid prefix.
	bad := []repro.ControlEvent{
		{Kind: "link-down", Link: 2},
		{Kind: "no-such-kind"},
	}
	if code := postJSON(t, ts.URL+"/observe", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed batch returned %d", code)
	}
	f.QuiesceAll()
	getJSON(t, ts.URL+"/state", &st)
	if len(st.DownLinks) != 0 {
		t.Fatalf("rejected batch mutated state: %+v", st)
	}
	if s := intakeStats(f); s.Accepted != 4 || s.Shed != 0 {
		t.Fatalf("stats %+v after rejected batch", s)
	}
}

// TestObserveBackpressure429 is the backpressure contract test: a full
// queue sheds the whole batch with 429 + Retry-After, shed and accepted
// counters reconcile exactly with what was offered, and the depth gauge
// returns to zero once the queue drains.
func TestObserveBackpressure429(t *testing.T) {
	ts, _, f := testServerIntake(t, 4, 3*time.Second)

	f.Pause("") // deliveries held: queue depth is fully deterministic
	ev := func(link int, kind string) repro.ControlEvent { return repro.ControlEvent{Kind: kind, Link: link} }

	if code := postJSON(t, ts.URL+"/observe", ev(0, "link-down"), nil); code != http.StatusAccepted {
		t.Fatalf("first observe returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/observe", []repro.ControlEvent{ev(1, "link-down"), ev(2, "link-down"), ev(3, "link-down")}, nil); code != http.StatusAccepted {
		t.Fatalf("filling batch returned %d", code)
	}
	// Queue is at capacity 4: one more event must shed with the hint.
	resp := postRaw(t, ts.URL+"/observe", `{"kind":"link-down","link":4}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow observe returned %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	// A 6-event batch can never fit in a 4-slot queue, full or not.
	big := make([]repro.ControlEvent, 6)
	for i := range big {
		big[i] = ev(i, "link-down")
	}
	if code := postJSON(t, ts.URL+"/observe", big, nil); code != http.StatusTooManyRequests {
		t.Fatalf("oversized batch returned %d", code)
	}

	// The admission ledger reconciles exactly: 11 offered = 4 + 1 + 6.
	st := intakeStats(f)
	if st.Accepted != 4 || st.Shed != 7 || st.Depth != 4 {
		t.Fatalf("stats %+v", st)
	}
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		`ingest_events_total{result="accepted"} 4`,
		`ingest_events_total{result="shed"} 7`,
		"ingest_queue_depth 4",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain: depth gauge returns to zero and admission recovers.
	f.Resume("")
	f.QuiesceAll()
	st = intakeStats(f)
	if st.Depth != 0 || st.Delivered != st.Accepted {
		t.Fatalf("post-drain stats %+v", st)
	}
	metrics = getMetrics(t, ts.URL)
	if !strings.Contains(metrics, "ingest_queue_depth 0") {
		t.Error("depth gauge did not return to zero after drain")
	}
	if code := postJSON(t, ts.URL+"/observe", ev(4, "link-down"), nil); code != http.StatusAccepted {
		t.Fatalf("post-drain observe returned %d", code)
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestObserveLegacySingleEvent is the back-compat regression: a legacy
// single-object /observe body must round-trip through the new batch
// decoder exactly as a one-element array would, and drive the daemon
// end to end unchanged.
func TestObserveLegacySingleEvent(t *testing.T) {
	// Decoder level: single object and one-element array are identical.
	const single = ` {"kind":"demand-delta","deltat":{"entries":[{"s":0,"t":2,"old":1.5,"new":80}]},"label":"legacy"}`
	fromSingle, err := decodeObserveBody(strings.NewReader(single))
	if err != nil {
		t.Fatalf("single-object decode: %v", err)
	}
	fromArray, err := decodeObserveBody(strings.NewReader("[" + single + "\n]"))
	if err != nil {
		t.Fatalf("array decode: %v", err)
	}
	if len(fromSingle) != 1 || !reflect.DeepEqual(fromSingle, fromArray) {
		t.Fatalf("single %+v != array %+v", fromSingle, fromArray)
	}
	if fromSingle[0].Label != "legacy" || fromSingle[0].DeltaT.Entries[0].New != 80 {
		t.Fatalf("decoded event %+v", fromSingle[0])
	}

	// Daemon level: the original wire form still works end to end.
	ts, _, f := testServer(t)
	resp := postRaw(t, ts.URL+"/observe", `{"kind":"link-down","link":7}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("legacy observe returned %d: %s", resp.StatusCode, body)
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		LastSeq  uint64 `json:"last_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.LastSeq != 1 {
		t.Fatalf("legacy ack %+v", ack)
	}
	f.QuiesceAll()
	var st repro.ControllerState
	getJSON(t, ts.URL+"/state", &st)
	if len(st.DownLinks) != 1 || st.DownLinks[0] != 7 {
		t.Fatalf("state after legacy observe: %+v", st)
	}

	// Malformed bodies the old handler rejected still reject.
	for _, bad := range []string{``, `{"kind":"link-down","link":3}trailing`, `[{"kind":"link-up","link":1}]]`, `not json`} {
		resp := postRaw(t, ts.URL+"/observe", bad)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q returned %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServerSoakDrainOnSIGTERM is the concurrency soak: producers flood
// /observe with labeled batches while a real SIGTERM lands mid-stream.
// serveAndDrain must stop accepting, drain the queue completely, and
// exit cleanly — with every accepted event delivered exactly once
// (audited through the intake tap) and nothing delivered that was
// never accepted.
func TestServerSoakDrainOnSIGTERM(t *testing.T) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	t.Cleanup(func() { obsv.SetDefault(nil) })
	nw, lib := testEngine(t)

	var tapMu sync.Mutex
	delivered := map[string]int{}
	f, err := repro.NewFleet([]repro.FleetMember{{
		Name: "net0", Net: nw, Library: lib,
		IntakeTap: func(labels []string) {
			tapMu.Lock()
			for _, l := range labels {
				delivered[l]++
			}
			tapMu.Unlock()
		},
	}}, repro.FleetOptions{IntakeCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(f, []member{{name: "net0", net: nw, lib: lib}}, 0, reg)
	hs := &http.Server{Handler: srv.mux()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serveAndDrain(hs, ln, f, sig) }()
	base := "http://" + ln.Addr().String()

	const producers = 6
	const batchSize = 8
	var auditMu sync.Mutex
	accepted := map[string]bool{} // labels in 202-acknowledged batches
	offered := map[string]bool{}  // every label ever sent
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acceptedBatches int64
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]repro.ControlEvent, batchSize)
				labels := make([]string, batchSize)
				for j := range batch {
					kind := "link-down"
					if (i+j)%2 == 1 {
						kind = "link-up"
					}
					labels[j] = fmt.Sprintf("w%d-b%d-e%d", w, i, j)
					batch[j] = repro.ControlEvent{Kind: kind, Link: (w*7 + i + j) % 32, Label: labels[j]}
				}
				auditMu.Lock()
				for _, l := range labels {
					offered[l] = true
				}
				auditMu.Unlock()
				data, _ := json.Marshal(batch)
				resp, err := http.Post(base+"/observe", "application/json", bytes.NewReader(data))
				if err != nil {
					continue // shutdown in progress: connection refused
				}
				code := resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if code == http.StatusAccepted {
					auditMu.Lock()
					for _, l := range labels {
						accepted[l] = true
					}
					acceptedBatches++
					auditMu.Unlock()
				}
			}
		}(w)
	}

	// Let traffic actually flow before the signal lands mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		auditMu.Lock()
		n := acceptedBatches
		auditMu.Unlock()
		if n >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producers never got 20 batches accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serveAndDrain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveAndDrain did not return after SIGTERM")
	}
	close(stop)
	wg.Wait()

	// Post-shutdown: admission is closed and the queue fully drained.
	if _, err := f.Enqueue([]repro.ControlEvent{{Kind: "link-down", Link: 1}}); !errors.Is(err, repro.ErrIntakeClosed) {
		t.Fatalf("post-shutdown Enqueue err = %v, want ErrIntakeClosed", err)
	}
	st := intakeStats(f)
	if st.Depth != 0 || st.Accepted != st.Delivered {
		t.Fatalf("intake did not drain: %+v", st)
	}

	// The audit: every accepted label delivered exactly once, nothing
	// lost, nothing duplicated, nothing invented.
	tapMu.Lock()
	defer tapMu.Unlock()
	auditMu.Lock()
	defer auditMu.Unlock()
	for l := range accepted {
		if delivered[l] != 1 {
			t.Fatalf("accepted label %q delivered %d times, want exactly 1", l, delivered[l])
		}
	}
	for l, n := range delivered {
		if n != 1 {
			t.Fatalf("label %q delivered %d times", l, n)
		}
		if !offered[l] {
			t.Fatalf("delivered label %q was never offered", l)
		}
	}
	// Accepted labels can exceed the 202-acknowledged set only by
	// batches whose response was lost mid-shutdown — those must still
	// have been offered, which the loop above verifies. The accepted
	// count must match the intake's own ledger.
	if int(st.Accepted) != len(delivered) {
		t.Fatalf("intake accepted %d events but tap saw %d", st.Accepted, len(delivered))
	}
}
