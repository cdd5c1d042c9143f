package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// e18Docs is the documents per request in the cluster benchmark.
const e18Docs = 4

// capacityShard models a shard with finite request capacity: one in-flight
// POST /extract at a time, each paying a fixed simulated service time before
// the real (fast) extraction runs. On a single-CPU bench host the real
// handlers cannot demonstrate horizontal scaling — every shard shares the
// same core — so the win from sharding is made visible the way it is in
// production: N shards overlap N service times. The middleware wraps a real
// serve.Server; placement, replication, failover and extraction are all the
// genuine article.
type capacityShard struct {
	mux     http.Handler
	slots   chan struct{}
	service time.Duration
}

func (c *capacityShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/extract" {
		c.slots <- struct{}{}
		time.Sleep(c.service)
		<-c.slots
	}
	c.mux.ServeHTTP(w, r)
}

// e18Config tunes one cluster run.
type e18Config struct {
	shards   int
	replicas int
	keys     int
	window   time.Duration // load-driving duration
	service  time.Duration // simulated per-request service time per shard
	killOne  bool          // kill the primary owner of key 0 mid-window
	hedge    time.Duration // router hedge delay (0 = off)
}

// e18Result is what one run measured.
type e18Result struct {
	requests  int
	failed    int
	durs      []time.Duration
	elapsed   time.Duration
	failovers int64
	hedges    int64
	downNodes int
}

// runClusterBench boots cfg.shards real in-process shard servers behind the
// capacity model, a failover-aware router over them, registers cfg.keys
// wrapper keys through the router (replicated to each key's owners), then
// drives one sequential request loop per key for cfg.window and reports
// what happened. With killOne the shard owning key 0 is killed halfway
// through the window without telling the router — requests riding on it
// must fail over to the surviving replica.
func runClusterBench(cfg e18Config, payload []byte) e18Result {
	o := obs.New()

	shards := make([]*httptest.Server, cfg.shards)
	peers := make([]string, cfg.shards)
	for i := range shards {
		s, err := serve.New(serve.Config{
			CacheCap: 64,
			Observer: nil, // per-shard telemetry is not under test here
			Options:  DefaultOptions,
			Batch:    wrapper.BatchOptions{Workers: 1},
		})
		if err != nil {
			panic(err)
		}
		shards[i] = httptest.NewServer(&capacityShard{
			mux:     s.Mux(),
			slots:   make(chan struct{}, 1),
			service: cfg.service,
		})
		peers[i] = shards[i].URL
	}
	defer func() {
		for _, s := range shards {
			s.Close()
		}
	}()

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Peers:        peers,
		Replicas:     cfg.replicas,
		HedgeAfter:   cfg.hedge,
		ProxyTimeout: 5 * time.Second,
		Observer:     o,
	})
	if err != nil {
		panic(err)
	}
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	keys := make([]string, cfg.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("site-%03d", i)
		req, _ := http.NewRequest(http.MethodPut, front.URL+"/wrappers/"+keys[i], bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			panic(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			panic(fmt.Sprintf("cluster bench: registering %s: status %d", keys[i], resp.StatusCode))
		}
	}

	// Pre-marshal one request body per key (mixed layouts, single-key
	// batches — the router's placement unit).
	layouts := []string{fig1Top, fig1Bottom, fig1Novel}
	bodies := make([][]byte, cfg.keys)
	for i, key := range keys {
		var buf bytes.Buffer
		buf.WriteString(`{"docs":[`)
		for d := 0; d < e18Docs; d++ {
			if d > 0 {
				buf.WriteByte(',')
			}
			doc, _ := json.Marshal(wrapper.BatchDoc{Key: key, HTML: layouts[(i+d)%len(layouts)]})
			buf.Write(doc)
		}
		buf.WriteString(`]}`)
		bodies[i] = buf.Bytes()
	}

	if cfg.killOne {
		victim := rt.Owners(keys[0])[0]
		for _, s := range shards {
			if s.URL == victim {
				time.AfterFunc(cfg.window/2, func() {
					s.CloseClientConnections()
					s.Close()
				})
			}
		}
	}

	// One sequential driver per key: a shopbot that never pipelines, so
	// per-shard concurrency equals the number of keys the shard owns.
	type tally struct {
		requests, failed int
		durs             []time.Duration
	}
	tallies := make([]tally, cfg.keys)
	deadline := time.Now().Add(cfg.window)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := time.Now()
				req, _ := http.NewRequest(http.MethodPost, front.URL+"/extract", bytes.NewReader(bodies[i]))
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				ok := err == nil && resp.StatusCode == http.StatusOK
				if resp != nil {
					resp.Body.Close()
				}
				tallies[i].requests++
				tallies[i].durs = append(tallies[i].durs, time.Since(s))
				if !ok {
					tallies[i].failed++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := e18Result{elapsed: elapsed}
	for _, tl := range tallies {
		res.requests += tl.requests
		res.failed += tl.failed
		res.durs = append(res.durs, tl.durs...)
	}
	snap := o.Metrics.Snapshot()
	res.failovers = snap.Counters["cluster_failover_total"]
	res.hedges = snap.Counters["cluster_hedge_total"]
	res.downNodes = cfg.shards - rt.Health().UpCount()
	return res
}

// E18Cluster measures the sharded serving path: aggregate throughput and
// tail latency for 1, 2 and 4 shards behind the consistent-hash router
// (replication factor 1, so every shard carries a disjoint key range), then
// a failover run — 3 shards, replication factor 2, the primary owner of one
// key range killed mid-run — where the failed-request column must stay 0.
//
// Each shard admits one request at a time and pays a fixed simulated
// service time (the capacity model; see capacityShard), so the scaling win
// comes from overlapping service latency across shards — the production
// mechanism — rather than from CPU parallelism the single-core bench host
// does not have. Requests, placement, replication and failover all exercise
// the real internal/cluster + internal/serve stack over HTTP.
func E18Cluster(keys int, window, service time.Duration) Table {
	t := Table{
		ID:     "E18",
		Title:  "sharded cluster serving (modeled shard capacity): consistent-hash placement, replicated registry, failover",
		Claim:  "cluster extension, modeled: with each shard's capacity modeled as one request at a time plus a fixed sleep service time, consistent-hash sharding scales aggregate throughput near-linearly (≥2.5× at 4 shards, modeled) and R=2 replication serves every request through a shard kill (0 failed)",
		Header: []string{"shards", "R", "req/sec", "p50 ms", "p99 ms", "failed", "failovers", "speedup ×"},
	}
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}, Options: DefaultOptions})
	if err != nil {
		panic(err)
	}
	payload, err := w.MarshalJSON()
	if err != nil {
		panic(err)
	}

	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
	row := func(label string, shards, replicas int, res e18Result, baseline float64) float64 {
		rate := float64(res.requests) / res.elapsed.Seconds()
		speedup := "1.0"
		if baseline > 0 {
			speedup = fmt.Sprintf("%.1f", rate/baseline)
		} else if label != "" {
			speedup = "-"
		}
		shown := fmt.Sprint(shards)
		if label != "" {
			shown = label
		}
		t.Rows = append(t.Rows, []string{
			shown, fmt.Sprint(replicas), fmt.Sprintf("%.0f", rate),
			ms(pctile(res.durs, 0.50)), ms(pctile(res.durs, 0.99)),
			fmt.Sprint(res.failed), fmt.Sprint(res.failovers), speedup,
		})
		return rate
	}

	var baseline float64
	for _, n := range []int{1, 2, 4} {
		res := runClusterBench(e18Config{
			shards: n, replicas: 1, keys: keys, window: window, service: service,
		}, payload)
		rate := row("", n, 1, res, baseline)
		if n == 1 {
			baseline = rate
		}
	}

	// The resilience run: kill a shard mid-window with hedging on. Failed
	// must be 0 — TestE18FailoverZeroFailedRequests asserts the same
	// property independently of the bench.
	res := runClusterBench(e18Config{
		shards: 3, replicas: 2, keys: keys, window: window, service: service,
		killOne: true, hedge: 20 * service,
	}, payload)
	row("3 (kill 1)", 3, 2, res, baseline)
	return t
}
