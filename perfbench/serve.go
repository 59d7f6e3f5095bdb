package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/scenario"
)

// request is one scheduled telemetry batch for one network, due at an
// offset from the window start: a POST /observe body for dtrd, the same
// events decoded for the traced in-process run.
type request struct {
	due     time.Duration
	network string
	class   string // "link", "demand" or "mixed"
	events  int
	body    []byte
	evs     []repro.ControlEvent
	eng     []scenario.Event // the same events in engine form, for the traced replay

	// Outcome, in offsets from the window start.
	sent, acked time.Duration
	code        int
	err         error
}

func (r *request) admitted() bool { return r.err == nil && r.code == http.StatusAccepted }

// newRequest renders one batch of engine events for network; every
// event is labelled with the request's index, so the traced run can map
// delivered batches back to requests.
func newRequest(idx int, due time.Duration, network, class string, eng []scenario.Event) *request {
	eng = slices.Clone(eng)
	for i := range eng {
		eng[i].Label = fmt.Sprintf("r%d", idx)
	}
	evs := wire(eng, network)
	return &request{due: due, network: network, class: class, events: len(evs), body: encodeBatch(evs), evs: evs, eng: eng}
}

// fresh returns copies of reqs with no outcome, for a second window over
// the same inputs.
func fresh(reqs []*request) []*request {
	out := make([]*request, len(reqs))
	for i, r := range reqs {
		out[i] = &request{due: r.due, network: r.network, class: r.class, events: r.events, body: r.body, evs: r.evs, eng: r.eng}
	}
	return out
}

// target is what a window drives: dtrd over HTTP, or the facade fleet
// in-process for the traced run.
type target interface {
	observe(r *request) (code int, err error)
	quiesce(network string) error
	advise(network string) error
}

// httpTarget is dtrd over two keep-alive connections: one for telemetry,
// one for quiesce and advise.
type httpTarget struct {
	base      string
	tele, ctl *client
}

func (t httpTarget) observe(r *request) (int, error) {
	code, _, err := t.tele.post(t.base+"/observe", r.body)
	return code, err
}

func (t httpTarget) quiesce(network string) error {
	return t.ctl.postJSON(t.base+"/fleet/quiesce?network="+network, nil, nil)
}

func (t httpTarget) advise(network string) error {
	code, body, err := t.ctl.get(t.base + "/advise?network=" + network)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /advise: %d %s", code, body)
	}
	return err
}

// cycle is one barrier round on the control connection: quiesce a
// network, then advise on it. Every event acknowledged before the
// quiesce was issued is reflected in the advice.
type cycle struct {
	network                string
	issued, quiesced, done time.Duration
	adviseRTT              time.Duration
}

// sliceLen splits a window into slices whose medians the end-to-end
// metrics report: a stall on a shared machine spoils one slice, not the
// run. A 2 s slice holds about 40 netday-100 requests or 310
// firehose-4x30 batches.
const sliceLen = 2 * time.Second

// window is what one open-loop window measured.
type window struct {
	reqs   []*request
	cycles []cycle
	start  time.Time
	// cpu samples the served process's CPU time at every slice boundary
	// and once after the last barrier round (empty without a pid).
	cpu []time.Duration
	// tta holds one time-to-advice sample per admitted request, in ms,
	// with the request's class and its covering cycle; lateness how late
	// each request was sent.
	tta      []float64
	ttaClass []string
	cover    []int // per request: index into cycles, -1 if not admitted
	lateness []float64
	err      error
}

// runWindow sends reqs at their due times (open loop: a slow response
// delays the sends behind it, and that delay counts against them) while
// a second goroutine runs barrier rounds for every network with newly
// acknowledged requests. With pid > 0 a third samples that process's CPU
// time at every slice boundary. It returns once every request was sent
// and a barrier round covers every admitted one.
func runWindow(t target, reqs []*request, pid int) *window {
	w := &window{reqs: reqs}
	var (
		mu      sync.Mutex
		pending = map[string]bool{}
	)
	wake := make(chan struct{}, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	round := func(networks []string) error {
		for _, n := range networks {
			issued := time.Since(w.start)
			if err := t.quiesce(n); err != nil {
				return err
			}
			quiesced := time.Since(w.start)
			if err := t.advise(n); err != nil {
				return err
			}
			end := time.Since(w.start)
			w.cycles = append(w.cycles, cycle{network: n, issued: issued, quiesced: quiesced, done: end, adviseRTT: end - quiesced})
		}
		return nil
	}
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for n := range pending {
			out = append(out, n)
		}
		sort.Strings(out)
		clear(pending)
		return out
	}
	w.start = time.Now()
	sampled := make(chan struct{})
	if pid > 0 {
		go func() {
			defer close(sampled)
			for k := 0; ; k++ {
				if d := time.Duration(k)*sliceLen - time.Since(w.start); d > 0 {
					select {
					case <-time.After(d):
					case <-stop:
						return
					}
				}
				cpu, err := procCPU(pid)
				if err != nil {
					return
				}
				w.cpu = append(w.cpu, cpu)
			}
		}()
	} else {
		close(sampled)
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-wake:
				if err := round(take()); err != nil {
					w.err = err
					return
				}
			case <-stop:
				w.err = round(take())
				return
			}
		}
	}()
	for _, r := range reqs {
		if d := r.due - time.Since(w.start); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Since(w.start)
		r.code, r.err = t.observe(r)
		r.acked = time.Since(w.start)
		if r.admitted() {
			mu.Lock()
			pending[r.network] = true
			mu.Unlock()
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}
	close(stop)
	<-done
	<-sampled
	if pid > 0 {
		if cpu, err := procCPU(pid); err == nil {
			w.cpu = append(w.cpu, cpu)
		}
	}
	w.measure()
	return w
}

// slices returns, per slice of the window, the time-to-advice samples of
// the requests due in it and the CPU per admitted request in ms.
func (w *window) slices() (tta []dist, cpuPerReq []float64) {
	n := 0
	for _, r := range w.reqs {
		n = max(n, int(r.due/sliceLen)+1)
	}
	raw := make([][]float64, n)
	admitted := make([]int, n)
	j := 0
	for k, r := range w.reqs {
		if w.cover[k] < 0 {
			continue
		}
		s := int(r.due / sliceLen)
		raw[s] = append(raw[s], w.tta[j])
		admitted[s]++
		j++
	}
	for s := range raw {
		tta = append(tta, newDist(raw[s]))
		if s+1 < len(w.cpu) && admitted[s] > 0 {
			cpuPerReq = append(cpuPerReq, ms(w.cpu[s+1]-w.cpu[s])/float64(admitted[s]))
		}
	}
	return tta, cpuPerReq
}

// sliceMedians sets the end-to-end metrics of a serving window: the
// median over slices of each slice's p50 time-to-advice and of its CPU
// per request; and, ungated, the median of the slices' p90.
func (w *window) sliceMedians(r *run) {
	tta, cpu := w.slices()
	var p50s, p90s []float64
	for _, d := range tta {
		if len(d) > 0 {
			p50s = append(p50s, d.p50())
			p90s = append(p90s, d.at(0.9))
		}
	}
	r.set("time_to_result_p50_ms", median(p50s))
	r.set("bench.tta_p90_ms", median(p90s))
	r.set("cpu_ms_per_result", median(cpu))
	r.note("  per-slice (%s) p50 %v", sliceLen, roundAll(p50s))
	r.note("  per-slice (%s) p90 %v", sliceLen, roundAll(p90s))
	r.note("  per-slice (%s) CPU ms/request %v", sliceLen, roundAll(cpu))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// measure derives time-to-advice and lateness from the raw stamps: a
// request's advice is the first barrier round on its network issued
// after its acknowledgement.
func (w *window) measure() {
	byNet := map[string][]int{}
	for i, c := range w.cycles {
		byNet[c.network] = append(byNet[c.network], i)
	}
	w.cover = make([]int, len(w.reqs))
	for k, r := range w.reqs {
		w.cover[k] = -1
		w.lateness = append(w.lateness, ms(r.sent-r.due))
		if !r.admitted() {
			continue
		}
		cs := byNet[r.network]
		i := sort.Search(len(cs), func(i int) bool { return w.cycles[cs[i]].issued >= r.acked })
		if i == len(cs) {
			if w.err == nil {
				w.err = fmt.Errorf("no barrier round covers the request due at %s", r.due)
			}
			continue
		}
		w.cover[k] = cs[i]
		w.tta = append(w.tta, ms(w.cycles[cs[i]].done-r.due))
		w.ttaClass = append(w.ttaClass, r.class)
	}
}

// ttaOf returns the time-to-advice samples of one class ("" = all).
func (w *window) ttaOf(class string) dist {
	var xs []float64
	for i, v := range w.tta {
		if class == "" || w.ttaClass[i] == class {
			xs = append(xs, v)
		}
	}
	return newDist(xs)
}

// counts returns requests offered, admitted and refused, and events
// admitted.
func (w *window) counts() (offered, admitted, refused, events int) {
	for _, r := range w.reqs {
		offered++
		if r.admitted() {
			admitted++
			events += r.events
		} else {
			refused++
		}
	}
	return
}

func (w *window) ackRTT() dist {
	var xs []float64
	for _, r := range w.reqs {
		if r.err == nil {
			xs = append(xs, ms(r.acked-r.sent))
		}
	}
	return newDist(xs)
}

func (w *window) adviseRTT() dist {
	var xs []float64
	for _, c := range w.cycles {
		xs = append(xs, ms(c.adviseRTT))
	}
	return newDist(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// encodeBatch renders one /observe body.
func encodeBatch(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode observe batch: %v", err)) // wire types always encode
	}
	return data
}

// slowest notes the n requests with the longest time-to-advice.
func (w *window) slowest(r *run, n int) {
	idx := make([]int, 0, len(w.reqs))
	for k := range w.reqs {
		if w.cover[k] >= 0 {
			idx = append(idx, k)
		}
	}
	tta := func(k int) time.Duration { return w.cycles[w.cover[k]].done - w.reqs[k].due }
	sort.Slice(idx, func(a, b int) bool { return tta(idx[a]) > tta(idx[b]) })
	for _, k := range idx[:min(n, len(idx))] {
		rq := w.reqs[k]
		r.note("  slow: request %d due %s, %s, %d events, late %s, ack %s, advice after %s",
			k, rq.due.Round(time.Millisecond), rq.class, rq.events, (rq.sent - rq.due).Round(10*time.Microsecond),
			(rq.acked - rq.sent).Round(10*time.Microsecond), tta(k).Round(10*time.Microsecond))
	}
}

// dump writes the window's per-request samples — due time, class and
// time-to-advice in ms — for offline analysis.
func (w *window) dump(path string) error {
	type sample struct {
		Due   float64 `json:"due_ms"`
		Class string  `json:"class"`
		TTA   float64 `json:"tta_ms"`
	}
	var out []sample
	j := 0
	for k, r := range w.reqs {
		if w.cover[k] < 0 {
			continue
		}
		out = append(out, sample{ms(r.due), r.class, w.tta[j]})
		j++
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
