package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"resilex/internal/obs"
)

// NodeState is a shard node's availability as the membership layer sees it.
// The states are a circuit breaker's: NodeUp is a closed breaker (route
// normally), NodeDown is an open one (skip the node, keep probing), and the
// first successful probe of a down node readmits it — the half-open trial
// collapsed into the poll loop, since a health probe is already exactly one
// cheap trial request.
type NodeState int

// Node availability states.
const (
	NodeUp NodeState = iota
	NodeDown
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MembershipConfig tunes the health layer. The zero value is usable.
type MembershipConfig struct {
	// FailureThreshold is the number of consecutive probe or proxy failures
	// that marks a node down. Default 3.
	FailureThreshold int
	// Interval is the health-poll period. Default 1s.
	Interval time.Duration
	// ProbeTimeout bounds each individual probe. Default 500ms.
	ProbeTimeout time.Duration
	// Probe checks one node; nil defaults to an HTTP GET of node+"/healthz"
	// where any response below 500 counts as alive (a shard that answers
	// 4xx is misconfigured but reachable — routing to it beats dropping it).
	Probe func(ctx context.Context, node string) error
	// Jitter spreads each poll interval uniformly within ±Jitter·Interval,
	// so a fleet of routers restarted together does not probe every shard in
	// lockstep (thundering herd). 0 selects the default 0.1; negative
	// disables jitter. Values above 1 are clamped to 1.
	Jitter float64
	// Now is injectable for deterministic tests. Default time.Now.
	Now func() time.Time
	// Rand is the jitter source, injectable for deterministic tests: a
	// function returning a uniform float64 in [0, 1). Default math/rand.
	Rand func() float64
	// Observer receives the membership telemetry: the cluster_ring_nodes /
	// cluster_ring_nodes_up gauges, per-node cluster_node_up gauges, and
	// cluster_node_transitions_total counters. nil disables observation.
	Observer *obs.Observer
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.Probe == nil {
		client := &http.Client{}
		c.Probe = func(ctx context.Context, node string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				return fmt.Errorf("cluster: %s /healthz: status %d", node, resp.StatusCode)
			}
			return nil
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter > 1 {
		c.Jitter = 1
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// Jittered spreads d uniformly within ±jitter·d using r as the randomness
// source: d · (1 + (2r−1)·jitter). With jitter 0 (or a degenerate result)
// the input is returned unchanged — the schedule never collapses to zero.
func Jittered(d time.Duration, jitter float64, r func() float64) time.Duration {
	if jitter <= 0 || d <= 0 {
		return d
	}
	j := time.Duration(float64(d) * (1 + (2*r()-1)*jitter))
	if j <= 0 {
		return d
	}
	return j
}

// nodeHealth is the per-node breaker record.
type nodeHealth struct {
	state       NodeState
	consecutive int // consecutive failures while up
	lastErr     string
	lastChange  time.Time
}

// NodeHealth is the externally visible snapshot of one node.
type NodeHealth struct {
	Node                string    `json:"node"`
	State               string    `json:"state"`
	ConsecutiveFailures int       `json:"consecutiveFailures"`
	LastError           string    `json:"lastError,omitempty"`
	LastTransition      time.Time `json:"lastTransition"`
}

// Membership tracks shard availability for the router: every node starts
// up, consecutive failures (probes or live proxy attempts, both count) past
// the threshold mark it down with an observable transition, and any
// successful probe or proxy marks it back up. Safe for concurrent use; the
// router reports outcomes from request goroutines while Run polls.
type Membership struct {
	cfg MembershipConfig

	mu    sync.Mutex
	nodes map[string]*nodeHealth
}

// NewMembership tracks the given nodes, all initially up.
func NewMembership(nodes []string, cfg MembershipConfig) *Membership {
	m := &Membership{cfg: cfg.withDefaults(), nodes: map[string]*nodeHealth{}}
	now := m.cfg.Now()
	for _, n := range nodes {
		m.nodes[n] = &nodeHealth{state: NodeUp, lastChange: now}
	}
	o := m.cfg.Observer
	o.Gauge("cluster_ring_nodes").Set(int64(len(m.nodes)))
	o.Gauge("cluster_ring_nodes_up").Set(int64(len(m.nodes)))
	for _, n := range nodes {
		o.Gauge(obs.WithLabels("cluster_node_up", "node", n)).Set(1)
	}
	return m
}

// Up reports whether the node is currently routable. Unknown nodes are up:
// the membership layer only ever vetoes, never invents members.
func (m *Membership) Up(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	return !ok || st.state == NodeUp
}

// UpCount reports how many tracked nodes are up.
func (m *Membership) UpCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.nodes {
		if st.state == NodeUp {
			n++
		}
	}
	return n
}

// Order arranges an owner list for failover: up nodes first (preserving
// ring order), down nodes appended as a last resort — a down mark is a
// routing hint, not a ban, because when every owner is down trying one
// anyway is strictly better than refusing the request.
func (m *Membership) Order(owners []string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	up := make([]string, 0, len(owners))
	var down []string
	for _, n := range owners {
		if st, ok := m.nodes[n]; ok && st.state == NodeDown {
			down = append(down, n)
		} else {
			up = append(up, n)
		}
	}
	return append(up, down...)
}

// ReportSuccess records a successful probe or proxy to the node, marking a
// down node back up.
func (m *Membership) ReportSuccess(node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		return
	}
	st.consecutive = 0
	st.lastErr = ""
	m.transitionLocked(node, st, NodeUp)
}

// ReportFailure records a failed probe or proxy to the node; the
// FailureThreshold-th consecutive failure marks it down.
func (m *Membership) ReportFailure(node string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		return
	}
	st.consecutive++
	if err != nil {
		st.lastErr = err.Error()
	}
	if st.consecutive >= m.cfg.FailureThreshold {
		m.transitionLocked(node, st, NodeDown)
	}
}

// transitionLocked moves a node to the target state (no-op when already
// there), emitting the transition counter, the per-node gauge, the up-count
// gauge and an event. Caller holds m.mu.
func (m *Membership) transitionLocked(node string, st *nodeHealth, to NodeState) {
	if st.state == to {
		return
	}
	from := st.state
	st.state = to
	st.lastChange = m.cfg.Now()
	o := m.cfg.Observer
	o.Counter(obs.WithLabels("cluster_node_transitions_total",
		"node", node, "from", from.String(), "to", to.String())).Inc()
	upGauge := int64(1)
	if to == NodeDown {
		upGauge = 0
	}
	o.Gauge(obs.WithLabels("cluster_node_up", "node", node)).Set(upGauge)
	up := int64(0)
	for _, s := range m.nodes {
		if s.state == NodeUp {
			up++
		}
	}
	o.Gauge("cluster_ring_nodes_up").Set(up)
	o.Event("cluster.node", "node", node, "from", from.String(), "to", to.String())
}

// PollOnce probes every node concurrently and reports the results. Down
// nodes are probed too — that probe is the breaker's half-open trial, and
// its success readmits the node.
func (m *Membership) PollOnce(ctx context.Context) {
	m.mu.Lock()
	nodes := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		nodes = append(nodes, n)
	}
	m.mu.Unlock()
	sort.Strings(nodes)
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
			defer cancel()
			if err := m.cfg.Probe(pctx, node); err != nil {
				m.ReportFailure(node, err)
			} else {
				m.ReportSuccess(node)
			}
		}(node)
	}
	wg.Wait()
}

// Run polls roughly every Interval until ctx is canceled. Each wait is
// jittered within ±Jitter·Interval so a fleet of routers restarted at the
// same instant desynchronizes instead of probing every shard in lockstep.
func (m *Membership) Run(ctx context.Context) {
	t := time.NewTimer(Jittered(m.cfg.Interval, m.cfg.Jitter, m.cfg.Rand))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.PollOnce(ctx)
			t.Reset(Jittered(m.cfg.Interval, m.cfg.Jitter, m.cfg.Rand))
		}
	}
}

// Snapshot returns every node's health, sorted by node, for /healthz.
func (m *Membership) Snapshot() []NodeHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeHealth, 0, len(m.nodes))
	for node, st := range m.nodes {
		out = append(out, NodeHealth{
			Node:                node,
			State:               st.state.String(),
			ConsecutiveFailures: st.consecutive,
			LastError:           st.lastErr,
			LastTransition:      st.lastChange,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
