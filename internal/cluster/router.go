package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"resilex/internal/obs"
)

// RouterConfig tunes the failover-aware router front-end.
type RouterConfig struct {
	// Peers are the shard base URLs (e.g. http://10.0.0.1:8093). At least
	// one is required; trailing slashes are stripped.
	Peers []string
	// Replicas is the replication factor R: how many owners each wrapper
	// key has. Every wrapper write goes to all R owners; extraction
	// fails over along the same list. Default 2, capped at len(Peers).
	Replicas int
	// VirtualNodes is the per-node vnode count of the placement ring;
	// <= 0 selects DefaultVirtualNodes.
	VirtualNodes int
	// HedgeAfter, when positive, hedges tail extract requests: if the
	// primary owner has not answered within this delay, a duplicate is
	// raced against the next replica and the first success wins. Mutating
	// routes are never hedged.
	HedgeAfter time.Duration
	// ProxyTimeout bounds each individual proxy attempt (each failover leg
	// separately). Default 5s.
	ProxyTimeout time.Duration
	// MaxBodyBytes bounds request bodies; 0 selects DefaultMaxBody (64 MiB).
	MaxBodyBytes int64
	// Membership tunes the health layer; its Observer defaults to the
	// router's.
	Membership MembershipConfig
	// Observer receives the routing telemetry (cluster_route_total,
	// cluster_failover_total, cluster_hedge_total, and the membership
	// gauges). nil disables observation.
	Observer *obs.Observer
	// Client issues the proxy requests. Default: a fresh http.Client;
	// per-attempt contexts bound it.
	Client *http.Client
}

// Router is the cluster front-end: it owns the placement ring and the
// membership view, proxies POST /extract to the owning shard with failover
// and optional hedging, and replicates every wrapper write (put, delete,
// canary, promote, rollback) to all the key's owners. Safe for concurrent
// use.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	health *Membership
	obs    *obs.Observer
	client *http.Client
}

// NewRouter builds a router over the peer set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: router needs at least one peer")
	}
	peers := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			return nil, errors.New("cluster: empty peer URL")
		}
		peers[i] = p
	}
	cfg.Peers = peers
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(peers) {
		cfg.Replicas = len(peers)
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.Membership.Observer == nil {
		cfg.Membership.Observer = cfg.Observer
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	ring := NewRing(cfg.VirtualNodes)
	ring.Add(peers...)
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		health: NewMembership(peers, cfg.Membership),
		obs:    cfg.Observer,
		client: client,
	}
	return rt, nil
}

// Ring exposes the placement ring (read-only use expected).
func (rt *Router) Ring() *Ring { return rt.ring }

// Health exposes the membership layer.
func (rt *Router) Health() *Membership { return rt.health }

// Replicas reports the effective replication factor.
func (rt *Router) Replicas() int { return rt.cfg.Replicas }

// Run polls shard health until ctx is canceled. Callers that only want
// passive (traffic-driven) detection can skip it.
func (rt *Router) Run(ctx context.Context) { rt.health.Run(ctx) }

// Mux mounts the routing endpoints on top of the observability handler, so
// one router address serves traffic, /healthz and /metrics. The router's
// GET /debug/traces/{id} assembles the cross-process view: its own spans
// merged with each peer's half of the trace.
func (rt *Router) Mux() *http.ServeMux {
	mux := obs.HandlerWith(rt.obs, rt.mergeTrace)
	mux.HandleFunc("POST /extract", rt.handleExtract)
	for _, wr := range WriteRoutes {
		mux.HandleFunc(wr.Pattern, rt.handleWrite(wr.Kind))
	}
	mux.HandleFunc("GET /wrappers/{key}/versions", rt.handleVersions)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// routeOutcome counts one routed request by outcome: ok, error (no owner
// could serve it), cross_shard (batch spans shards), reject (oversized,
// wrong media type, or undecodable).
func (rt *Router) routeOutcome(outcome string) {
	rt.obs.Counter(obs.WithLabels("cluster_route_total", "outcome", outcome)).Inc()
}

// refuse answers a request refused before routing (see ReadBody) and
// counts it as a reject.
func (rt *Router) refuse(w http.ResponseWriter, rej *Rejection) {
	rt.routeOutcome("reject")
	WriteError(w, rej.Status, rej.Err)
}

// mergeTrace assembles the cross-process view of one trace: the router's
// local spans plus each peer's half, fetched from the peers'
// /debug/traces/{id} endpoints and deduplicated by span ID. Peers that are
// down or don't know the trace contribute nothing — assembly is best-effort
// on read, with no write-path coordination.
func (rt *Router) mergeTrace(id string, local []obs.SpanRecord) []obs.SpanRecord {
	type fetched struct {
		spans []obs.SpanRecord
	}
	peers := rt.cfg.Peers
	results := make([]fetched, len(peers))
	var wg sync.WaitGroup
	for i, node := range peers {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProxyTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/debug/traces/"+url.PathEscape(id), nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var body struct {
				Spans []obs.SpanRecord `json:"spans"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes)).Decode(&body); err != nil {
				return
			}
			results[i].spans = body.Spans
		}(i, node)
	}
	wg.Wait()
	seen := make(map[int64]bool, len(local))
	out := local
	for _, s := range local {
		seen[s.ID] = true
	}
	for _, f := range results {
		for _, s := range f.spans {
			if s.TraceID == id && !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// handleExtract routes a batch to the shard owning its keys, with failover
// across the key's replicas and optional hedging. Batches whose keys place
// on different primaries are rejected (cross-shard fan-out is a ROADMAP
// follow-up, not silent partial behavior).
func (rt *Router) handleExtract(w http.ResponseWriter, r *http.Request) {
	body, rej := ReadBody(w, r, "application/json", rt.cfg.MaxBodyBytes)
	if rej != nil {
		rt.refuse(w, rej)
		return
	}
	var req struct {
		Docs []struct {
			Key string `json:"key"`
		} `json:"docs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		rt.refuse(w, &Rejection{http.StatusBadRequest, "decode", fmt.Errorf("decoding request: %w", err)})
		return
	}
	if len(req.Docs) == 0 {
		rt.routeOutcome("ok")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"results":[]}`)
		return
	}
	owners, err := rt.placeBatch(req.Docs)
	if err != nil {
		rt.routeOutcome("cross_shard")
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tc := obs.JoinTrace(w, r, rt.obs)
	ctx, sp := rt.obs.StartSpan(ctx, "router.extract")
	sp.SetAttr("docs", int64(len(req.Docs)))
	start := time.Now()
	res, err := rt.extract(ctx, rt.health.Order(owners), body)
	elapsed := time.Since(start)
	if err != nil {
		sp.SetError(err)
		sp.End()
		rt.obs.Histogram("cluster_route_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
		rt.routeOutcome("error")
		WriteError(w, http.StatusBadGateway, fmt.Errorf("no replica could serve the batch: %w", err))
		return
	}
	sp.SetStr("node", res.node)
	sp.End()
	rt.obs.Histogram("cluster_route_duration_us").ObserveExemplar(elapsed.Microseconds(), tc.TraceID)
	rt.routeOutcome("ok")
	relay(w, res)
}

// placeBatch maps a batch to its owner list: the owners of the first key,
// after checking that every key in the batch has the same primary owner.
func (rt *Router) placeBatch(docs []struct {
	Key string `json:"key"`
}) ([]string, error) {
	owners := rt.ring.Owners(docs[0].Key, rt.cfg.Replicas)
	if len(owners) == 0 {
		return nil, errors.New("cluster: placement ring is empty")
	}
	seen := map[string]bool{docs[0].Key: true}
	for _, d := range docs[1:] {
		if seen[d.Key] {
			continue
		}
		seen[d.Key] = true
		other := rt.ring.Owners(d.Key, 1)
		if len(other) == 0 || other[0] != owners[0] {
			return nil, fmt.Errorf("cluster: batch spans shards (%q on %s, %q on %s); split the batch per shard — cross-shard fan-out is a planned follow-up",
				docs[0].Key, owners[0], d.Key, other[0])
		}
	}
	return owners, nil
}

// proxyResult is one relayed shard response.
type proxyResult struct {
	status      int
	contentType string
	body        []byte
	node        string
}

func relay(w http.ResponseWriter, res *proxyResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// extract runs the failover chain over the ordered owners, hedging with the
// first replica when the primary is slow and hedging is enabled.
func (rt *Router) extract(ctx context.Context, ordered []string, body []byte) (*proxyResult, error) {
	if rt.cfg.HedgeAfter <= 0 || len(ordered) < 2 {
		return rt.attemptChain(ctx, http.MethodPost, "/extract", "application/json", body, ordered)
	}
	type chainResult struct {
		res *proxyResult
		err error
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan chainResult, 2)
	run := func(chain []string) {
		res, err := rt.attemptChain(cctx, http.MethodPost, "/extract", "application/json", body, chain)
		resc <- chainResult{res, err}
	}
	go run(ordered)
	pending := 1
	hedged := false
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	var lastErr error
	for pending > 0 {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				rt.obs.Counter("cluster_hedge_total").Inc()
				pending++
				go run(ordered[1:])
			}
		case cr := <-resc:
			pending--
			if cr.err == nil {
				return cr.res, nil
			}
			lastErr = cr.err
		}
	}
	return nil, lastErr
}

// attemptChain tries each node in order until one answers without a
// transport error or 5xx, feeding the outcome of every attempt back into
// the membership view. Each advance past the first node is one failover.
func (rt *Router) attemptChain(ctx context.Context, method, path, contentType string, body []byte, chain []string) (*proxyResult, error) {
	var lastErr error
	for i, node := range chain {
		if i > 0 {
			rt.obs.Counter("cluster_failover_total").Inc()
		}
		res, err := rt.try(ctx, node, method, path, contentType, body)
		if err != nil {
			rt.reportAttempt(node, err)
			lastErr = err
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		rt.health.ReportSuccess(node)
		return res, nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no owners to try")
	}
	return nil, lastErr
}

// statusError is a proxy attempt the shard answered with a 5xx. It still
// fails the attempt (the request fails over to the next replica) but must
// not count against the node's membership breaker: the node is reachable
// and answering, and a 5xx can be a per-request verdict on the payload —
// e.g. a 503 construction-budget rejection of one pathological wrapper.
// Were it a passive failure, a client replaying such a request could walk a
// healthy shard's breaker down. Liveness of answering-but-erroring nodes is
// the active /healthz prober's call, not traffic's.
type statusError struct {
	node, path string
	status     int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: %s%s: status %d", e.node, e.path, e.status)
}

// reportAttempt feeds one failed proxy attempt into the membership view:
// transport-level failures (unreachable, timeout, torn response) count
// toward the breaker, while an answered 5xx proves the node alive.
func (rt *Router) reportAttempt(node string, err error) {
	var se *statusError
	if errors.As(err, &se) {
		rt.health.ReportSuccess(node)
		return
	}
	rt.health.ReportFailure(node, err)
}

// try is one bounded proxy attempt, recorded as a "router.attempt" child
// span naming the target node and counted per node in
// cluster_route_attempts_total{node=…,outcome=…} so failover hot spots are
// attributable. When ctx carries a trace, the attempt's position propagates
// to the shard in the X-Resilex-Trace header — the shard's spans parent to
// this attempt. A response is a failure only when the shard is unreachable
// or answering 5xx — 4xx means the shard is healthy and the client is
// wrong, which must not trigger failover.
func (rt *Router) try(ctx context.Context, node, method, path, contentType string, body []byte) (*proxyResult, error) {
	ctx, sp := rt.obs.StartSpan(ctx, "router.attempt")
	sp.SetStr("node", node)
	sp.SetStr("path", path)
	outcome := "ok"
	defer func() {
		rt.obs.Counter(obs.WithLabels("cluster_route_attempts_total", "node", node, "outcome", outcome)).Inc()
		sp.End()
	}()
	fail := func(err error) (*proxyResult, error) {
		sp.SetError(err)
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, node+path, bytes.NewReader(body))
	if err != nil {
		outcome = "transport"
		return fail(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if tc := obs.TraceFromContext(ctx); tc.TraceID != "" {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(tc))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		outcome = "transport"
		return fail(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		outcome = "transport"
		return fail(err)
	}
	if resp.StatusCode >= 500 {
		outcome = "status_5xx"
		return fail(&statusError{node: node, path: path, status: resp.StatusCode})
	}
	return &proxyResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        b,
		node:        node,
	}, nil
}

// replicaOutcome is one owner's result for a replicated mutation.
type replicaOutcome struct {
	Node   string `json:"node"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// replicate fans one framed operation out to every owner concurrently and
// reports each owner's outcome, feeding the membership view as it goes. The
// fan-out is one "router.replicate" span; each owner write is a child
// "router.attempt" span naming the node (see try).
func (rt *Router) replicate(ctx context.Context, owners []string, op Op) []replicaOutcome {
	ctx, sp := rt.obs.StartSpan(ctx, "router.replicate")
	sp.SetStr("op", op.Kind.String())
	sp.SetStr("key", op.Key)
	sp.SetAttr("owners", int64(len(owners)))
	defer sp.End()
	frame := EncodeOp(op)
	out := make([]replicaOutcome, len(owners))
	var wg sync.WaitGroup
	for i, node := range owners {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			res, err := rt.try(ctx, node, http.MethodPost, "/cluster/apply", OpContentType, frame)
			if err != nil {
				rt.reportAttempt(node, err)
				out[i] = replicaOutcome{Node: node, Error: err.Error()}
				return
			}
			rt.health.ReportSuccess(node)
			out[i] = replicaOutcome{Node: node, Status: res.status}
		}(i, node)
	}
	wg.Wait()
	for _, o := range out {
		result := "ok"
		if o.Error != "" || o.Status >= 400 {
			result = "error"
		}
		rt.obs.Counter(obs.WithLabels("cluster_replicate_total",
			"op", op.Kind.String(), "outcome", result)).Inc()
	}
	return out
}

// writeRows is the per-kind row of the router's write handler: the status
// an owner answers when it applied the op, the response field counting
// those owners, and the error text when none did.
var writeRows = map[OpKind]struct {
	want        int
	field, fail string
}{
	OpPut:      {http.StatusCreated, "replicated", "no owner accepted the registration"},
	OpDelete:   {http.StatusOK, "deleted", "no owner could delete"},
	OpCanary:   {http.StatusCreated, "replicated", "no owner staged the canary"},
	OpPromote:  {http.StatusOK, "promote", "no owner applied the promote"},
	OpRollback: {http.StatusOK, "rollback", "no owner applied the rollback"},
}

// handleWrite builds the router's one write handler for an op kind. The
// write — a registration or canary with its wrapper JSON, a deletion, or a
// promote/rollback decision with its optional ?version=N guard — goes to
// all R owners of the key as one framed op. It succeeds if at least one
// owner applied it (every key stays servable through a node loss); owners
// that were down record an error in the response so a deploy can alarm on
// incomplete replication and retry. A DELETE that every owner answers with
// 404 is itself a 404: the key is unknown everywhere.
func (rt *Router) handleWrite(kind OpKind) http.HandlerFunc {
	row := writeRows[kind]
	return func(w http.ResponseWriter, r *http.Request) {
		op, rej := WriteOp(w, r, kind, rt.cfg.MaxBodyBytes)
		if rej != nil {
			rt.refuse(w, rej)
			return
		}
		ctx, _ := obs.JoinTrace(w, r, rt.obs)
		outcomes := rt.replicate(ctx, rt.ring.Owners(op.Key, rt.cfg.Replicas), op)
		applied, unknown, firstErr := summarize(outcomes, row.want)
		switch {
		case applied > 0:
			rt.routeOutcome("ok")
			WriteJSON(w, row.want, map[string]any{
				"key": op.Key, row.field: applied, "owners": outcomes,
			})
		case kind == OpDelete && unknown > 0 && unknown == len(outcomes):
			rt.routeOutcome("ok")
			WriteError(w, http.StatusNotFound, fmt.Errorf("no wrapper registered for %q", op.Key))
		default:
			rt.routeOutcome("error")
			WriteError(w, statusOf(firstErr, http.StatusBadGateway), fmt.Errorf("%s: %s", row.fail, firstErr))
		}
	}
}

// handleVersions proxies the version-state read to the key's owners with
// failover, so rollout tooling can poll one router address.
func (rt *Router) handleVersions(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	owners := rt.ring.Owners(key, rt.cfg.Replicas)
	if len(owners) == 0 {
		rt.routeOutcome("error")
		WriteError(w, http.StatusBadGateway, errors.New("cluster: placement ring is empty"))
		return
	}
	res, err := rt.attemptChain(r.Context(), http.MethodGet, "/wrappers/"+url.PathEscape(key)+"/versions", "", nil, rt.health.Order(owners))
	if err != nil {
		rt.routeOutcome("error")
		WriteError(w, http.StatusBadGateway, fmt.Errorf("no replica could report versions: %w", err))
		return
	}
	rt.routeOutcome("ok")
	relay(w, res)
}

// summarize counts owners that answered with the wanted success status and
// those that answered 404, and collects the first failure detail for error
// reporting.
func summarize(outcomes []replicaOutcome, want int) (applied, unknown int, firstErr string) {
	for _, o := range outcomes {
		if o.Error == "" && o.Status == http.StatusNotFound {
			unknown++
		}
		switch {
		case o.Error == "" && o.Status == want:
			applied++
		case firstErr == "":
			if o.Error != "" {
				firstErr = o.Node + ": " + o.Error
			} else {
				firstErr = fmt.Sprintf("%s: status %d", o.Node, o.Status)
			}
		}
	}
	if firstErr == "" {
		firstErr = "no owners"
	}
	return applied, unknown, firstErr
}

// statusOf maps an owner failure summary to a router status: client errors
// from the shard (a 4xx in the summary) pass through as 400-class, the
// rest is a gateway failure.
func statusOf(firstErr string, fallback int) int {
	if strings.Contains(firstErr, "status 4") {
		return http.StatusBadRequest
	}
	return fallback
}

// handleHealthz reports the router's own liveness plus its view of the
// ring: member count, up count, replication factor, and per-node health.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := rt.health.Snapshot()
	up := 0
	for _, n := range nodes {
		if n.State == NodeUp.String() {
			up++
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"mode":     "router",
		"replicas": rt.cfg.Replicas,
		"ring":     map[string]any{"nodes": rt.ring.Len(), "up": up},
		"nodes":    nodes,
	})
}

// Owners exposes placement for operational tooling: the ordered owner list
// of one key under the current ring.
func (rt *Router) Owners(key string) []string {
	return rt.ring.Owners(key, rt.cfg.Replicas)
}
