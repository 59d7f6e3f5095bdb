// Package traffic provides the traffic-matrix substrate: dense
// source×destination demand matrices, the gravity-model generator used to
// synthesize the paper's two traffic classes, and the two uncertainty
// models of Section V-F — Gaussian per-pair fluctuation and the
// upload/download hot-spot surge model.
package traffic

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Matrix is a dense traffic matrix in Mbps, indexed by (source,
// destination). The diagonal is always zero.
type Matrix struct {
	n int
	d []float64 // row-major: d[s*n+t]
}

// NewMatrix returns an all-zero n×n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, d: make([]float64, n*n)}
}

// Size returns the number of nodes the matrix covers.
func (m *Matrix) Size() int { return m.n }

// At returns the demand from s to t.
func (m *Matrix) At(s, t int) float64 { return m.d[s*m.n+t] }

// Set assigns the demand from s to t. Setting a diagonal entry panics:
// self-traffic is meaningless in this model.
func (m *Matrix) Set(s, t int, v float64) {
	if s == t {
		panic("traffic: self-demand is not allowed")
	}
	m.d[s*m.n+t] = v
}

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	var sum float64
	for _, v := range m.d {
		sum += v
	}
	return sum
}

// Scale multiplies every demand by f in place and returns m.
func (m *Matrix) Scale(f float64) *Matrix {
	for i := range m.d {
		m.d[i] *= f
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.d, m.d)
	return c
}

// Column writes the demands toward destination t into out (length n).
func (m *Matrix) Column(t int, out []float64) {
	for s := 0; s < m.n; s++ {
		out[s] = m.d[s*m.n+t]
	}
}

// NonZeroPairs returns the number of (s,t) pairs with positive demand.
func (m *Matrix) NonZeroPairs() int {
	count := 0
	for _, v := range m.d {
		if v > 0 {
			count++
		}
	}
	return count
}

// Gravity synthesizes the two class matrices with a gravity model: every
// node draws a random "send mass" and "receive mass", the demand of pair
// (s,t) is proportional to the product, and every SD pair carries both
// classes (the paper assumes each SD pair generates delay-sensitive
// traffic). The matrices are normalized so total volume is totalMbps with
// delayFrac of it in the delay-sensitive class.
func Gravity(n int, totalMbps, delayFrac float64, rng *rand.Rand) (delay, throughput *Matrix) {
	if delayFrac < 0 || delayFrac > 1 {
		panic(fmt.Sprintf("traffic: delay fraction %g out of [0,1]", delayFrac))
	}
	delay = gravityOne(n, rng)
	throughput = gravityOne(n, rng)
	dTot, tTot := delay.Total(), throughput.Total()
	if dTot > 0 {
		delay.Scale(totalMbps * delayFrac / dTot)
	}
	if tTot > 0 {
		throughput.Scale(totalMbps * (1 - delayFrac) / tTot)
	}
	return delay, throughput
}

func gravityOne(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n)
	send := make([]float64, n)
	recv := make([]float64, n)
	for i := range send {
		// Bounded away from zero so every pair has some traffic.
		send[i] = 0.1 + 0.9*rng.Float64()
		recv[i] = 0.1 + 0.9*rng.Float64()
	}
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				m.Set(s, t, send[s]*recv[t])
			}
		}
	}
	return m
}

// Fluctuate returns a copy of m with every demand perturbed by a Gaussian
// of standard deviation eps·r(s,t), the measurement-error model of
// Section V-F, clamped at zero.
func (m *Matrix) Fluctuate(eps float64, rng *rand.Rand) *Matrix {
	out := m.Clone()
	for i, v := range out.d {
		if v == 0 {
			continue
		}
		nv := v + rng.NormFloat64()*eps*v
		if nv < 0 {
			nv = 0
		}
		out.d[i] = nv
	}
	return out
}

// Hotspot describes the sporadic-incident surge model of Section V-F: a
// small set of server nodes, a set of clients each assigned to one
// server, and a uniform random scale factor applied to the demand of each
// (client, server) pair.
type Hotspot struct {
	// ServerFrac and ClientFrac are the fractions of nodes acting as
	// servers and clients (paper: 0.1 and 0.5).
	ServerFrac, ClientFrac float64
	// MinFactor and MaxFactor bound the uniform surge factor (paper: 2–6,
	// i.e. a 100–500% volume increase).
	MinFactor, MaxFactor float64
	// Download selects the download scenario (traffic from server to
	// client is scaled); otherwise upload (client to server).
	Download bool
}

// DefaultHotspot returns the configuration used in the paper's download
// hot-spot experiment.
func DefaultHotspot(download bool) Hotspot {
	return Hotspot{ServerFrac: 0.1, ClientFrac: 0.5, MinFactor: 2, MaxFactor: 6, Download: download}
}

// Apply draws a random server/client assignment and returns surged copies
// of the two class matrices. The same assignment and pair selection is
// used for both classes; each class draws its own factor per pair, as in
// the paper (ν and µ are independent).
func (h Hotspot) Apply(delay, throughput *Matrix, rng *rand.Rand) (*Matrix, *Matrix) {
	n := delay.Size()
	if throughput.Size() != n {
		panic("traffic: hotspot matrices disagree on size")
	}
	perm := rng.Perm(n)
	numServers := max(1, int(float64(n)*h.ServerFrac))
	numClients := max(1, int(float64(n)*h.ClientFrac))
	if numServers+numClients > n {
		numClients = n - numServers
	}
	servers := perm[:numServers]
	clients := perm[numServers : numServers+numClients]

	d2, t2 := delay.Clone(), throughput.Clone()
	for _, c := range clients {
		srv := servers[rng.Intn(len(servers))]
		nu := h.MinFactor + rng.Float64()*(h.MaxFactor-h.MinFactor)
		mu := h.MinFactor + rng.Float64()*(h.MaxFactor-h.MinFactor)
		s, t := c, srv
		if h.Download {
			s, t = srv, c
		}
		d2.Set(s, t, d2.At(s, t)*nu)
		t2.Set(s, t, t2.At(s, t)*mu)
	}
	return d2, t2
}

type jsonMatrix struct {
	N int       `json:"n"`
	D []float64 `json:"demands"`
}

// MarshalJSON encodes the matrix as its size and row-major demand list.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonMatrix{N: m.n, D: m.d})
}

// UnmarshalJSON decodes a matrix, validating its shape.
func (m *Matrix) UnmarshalJSON(data []byte) error {
	var jm jsonMatrix
	if err := json.Unmarshal(data, &jm); err != nil {
		return fmt.Errorf("traffic: decode: %w", err)
	}
	// The division catches sizes whose square overflows int and wraps
	// onto the entry count.
	if jm.N < 0 || len(jm.D) != jm.N*jm.N || jm.N > 0 && len(jm.D)/jm.N != jm.N {
		return fmt.Errorf("traffic: matrix size %d does not match %d nodes", len(jm.D), jm.N)
	}
	for i := 0; i < jm.N; i++ {
		if jm.D[i*jm.N+i] != 0 {
			return fmt.Errorf("traffic: nonzero self-demand at node %d", i)
		}
	}
	m.n = jm.N
	m.d = jm.D
	return nil
}
