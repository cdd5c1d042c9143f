// Command serve is the high-throughput serving path: an HTTP server that
// loads a persisted wrapper fleet through the compiled-artifact cache and
// extracts from batches of documents on a worker pool. It runs in three
// modes:
//
//	serve                                     # -mode single (default): one node
//	serve -mode shard -cache-dir /var/shard0  # one shard of a cluster
//	serve -mode router -peers http://h0:8093,http://h1:8093 -replicas 2
//
// Single/shard usage:
//
//	serve -fleet fleet.json                 # serve the fleet on :8093
//	serve -fleet fleet.json -listen :9000   # another address
//	serve -workers 16 -doc-timeout 50ms     # pool size and per-document deadline
//	serve -cache 1024 -max-states 100000    # cache capacity and compile budget
//	serve -cache-dir /var/cache/resilex     # persist artifacts + registrations
//	serve -drain 10s                        # graceful-shutdown deadline
//
// Single/shard endpoints:
//
//	POST   /extract        batch extraction: {"docs":[{"key":"site","html":"…"},…]}
//	                       → {"results":[{"index":0,"key":"site","ok":true,…},…]},
//	                       one result per document, in input order
//	POST   /extract/stream/{key}  single-document streaming extraction: the raw
//	                       page (text/html) is the request body and is piped
//	                       chunk by chunk through the one-pass matcher without
//	                       ever being materialized — memory stays O(1) beyond
//	                       the match region and the warm path allocates
//	                       nothing; a tuple key answers 422
//	                       (serve_rejected_total{reason="arity"}), an unknown
//	                       key 404 (see the README's "Streaming extraction"
//	                       walkthrough)
//	POST   /extract/tuples/{key}  single-document record extraction for a key
//	                       registered with a tuple (k-ary) wrapper: the raw page
//	                       (text/html) is the request body, the response
//	                       enumerates every extraction vector — one k-slot
//	                       record per vector, in document order — computed by
//	                       the one-pass multi-split spanner; a single-pivot key
//	                       answers 422 (counted under
//	                       serve_rejected_total{reason="arity"}), an unknown key
//	                       404 (see the README's "Extracting records" walkthrough)
//	PUT    /wrappers/{key} register or replace a site wrapper of either kind from
//	                       its persisted JSON; compilation is cached and
//	                       deduplicated, and with -cache-dir the registration
//	                       survives restarts
//	DELETE /wrappers/{key} remove a site wrapper; with -cache-dir the deletion
//	                       persists as a versioned tombstone, so restarts don't
//	                       resurrect it (a later re-PUT does, at a higher version)
//	PUT    /wrappers/{key}/canary    stage a candidate version on a slice of the
//	                                 key's traffic (-canary-fraction, default 0.25)
//	POST   /wrappers/{key}/promote   make the staged canary active (?version=N
//	                                 guards against promoting an unseen canary)
//	POST   /wrappers/{key}/rollback  discard the staged canary, or revert the
//	                                 most recent promotion to the prior version
//	GET    /wrappers/{key}/versions  the key's version state machine and canary
//	                                 observation-window statistics
//	POST   /cluster/apply  replicated wrapper operation from a cluster router
//	                       (codec-framed, checksummed; shard mode's write path)
//	GET    /healthz        liveness plus fleet size and memory/disk cache stats
//	GET    /metrics        Prometheus text exposition (see obs.Handler);
//	                       OpenMetrics with trace-ID exemplars when requested
//	                       via Accept: application/openmetrics-text
//	GET    /metrics.json   combined metrics + span snapshot
//	GET    /debug/traces   recent request traces (one entry per trace ID)
//	GET    /debug/traces/{id}  the assembled span tree of one request — on a
//	                       router this merges the peers' halves of the trace
//	GET    /debug/pprof/   runtime profiles
//
// Every route that takes a body admits it the same way, in every mode: an
// absent Content-Type is accepted, a declared one must be the route's media
// type — application/json for /extract and the wrapper writes, text/html for
// the two page routes — or the request is a 415; a body over -max-body is a
// 413. A node counts both under serve_rejected_total{reason}, the router
// under cluster_route_total{outcome="reject"}.
//
// Every request is traced: the server joins a trace propagated in the
// X-Resilex-Trace header or mints a fresh trace ID at ingress, echoes it in
// the response header, and keeps the request's spans retrievable at
// GET /debug/traces/{id}. -trace-export appends every traced span to a JSONL
// file as it completes; -wide-event-sample N emits one wide request event
// (trace ID, doc bytes, serving rung, duration, result count) to stderr as
// JSON for every Nth request of each route (0 disables).
//
// Router mode serves the same extraction and wrapper routes but owns no
// fleet: a consistent-hash ring over -peers places every wrapper key on
// -replicas shards, POST /extract proxies to the key's owner (failing over
// to the next replica on error or timeout, hedging stragglers after
// -hedge-after), and wrapper PUTs/DELETEs fan out to every owner. A
// background health loop probes each peer's /healthz every -health-interval
// and routes around nodes that are down. See internal/cluster.
//
// The compiled-artifact cache keeps expensive automaton construction off
// the request path: a wrapper's expression is compiled at most once per
// content address, concurrent cold loads are collapsed by singleflight, and
// every construction runs under the -max-states budget so no request can
// trigger the worst-case exponential determinization unbounded.
//
// With -cache-dir the cache gains a disk tier (memory → disk → compile):
// compiled artifacts are persisted as checksummed binary blobs under their
// content address, and every PUT wrapper payload is recorded in a registry,
// both restored at startup — so a restarted server warm-starts its whole
// fleet by decoding artifacts (no re-determinization; experiment E17
// measures the ≥5× first-request win). Corrupt or stale-version blobs are
// discarded and recompiled. On SIGINT/SIGTERM the server stops accepting,
// drains in-flight requests for at most -drain, and exits 0.
//
// With -sample-dir the continuous-refresh pipeline runs in-process: a
// background drift watcher (internal/refresh) reads live page samples from
// <dir>/<key>/*.html every -refresh-interval, re-induces a candidate
// wrapper when the active version starts missing them, canary-deploys it on
// -canary-fraction of the key's traffic, and promotes or rolls back on the
// observation window's verdict. Registry versions, canary state and rollout
// outcomes all persist under -cache-dir and replicate through
// POST /cluster/apply in shard mode. Experiment E19 measures the pipeline;
// scripts/refresh_smoke.sh drives it against real processes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resilex/internal/cluster"
	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/refresh"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "single", "single (standalone node), shard (cluster member), or router (cluster front-end)")
	fleetPath := flag.String("fleet", "", "persisted fleet JSON to serve (optional; wrappers can also be PUT at runtime)")
	listen := flag.String("listen", ":8093", "address to serve on")
	workers := flag.Int("workers", 0, "extraction worker-pool size (0 = GOMAXPROCS)")
	docTimeout := flag.Duration("doc-timeout", 0, "per-document extraction deadline (0 = none)")
	cacheCap := flag.Int("cache", 256, "in-memory compiled-artifact cache capacity (single-pivot and tuple artifacts together)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent tier: compiled artifacts and PUT wrappers survive restarts (empty = memory only)")
	diskCap := flag.Int("disk-cache", -1, "on-disk compiled-artifact capacity (-1 = unbounded, 0 = store nothing)")
	maxStates := flag.Int("max-states", 0, "state budget for wrapper compilation (0 = default)")
	maxBody := flag.Int64("max-body", 0, "request-body size limit in bytes (0 = 64 MiB)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight requests")
	traceExport := flag.String("trace-export", "", "append every traced span to this JSONL file as it completes (empty = off)")
	wideEventSample := flag.Int("wide-event-sample", 0, "emit one wide request event to stderr as JSON per N requests (0 = off, 1 = every request)")
	// Refresh-pipeline flags (single/shard modes).
	canaryFraction := flag.Float64("canary-fraction", 0, "fraction of a key's traffic routed to its staged canary version (0 = default 0.25)")
	sampleDir := flag.String("sample-dir", "", "spool directory of live page samples (<dir>/<key>/*.html); enables the background drift watcher")
	refreshInterval := flag.Duration("refresh-interval", 30*time.Second, "drift-watch period when -sample-dir is set")
	refreshMinSamples := flag.Int("refresh-min-samples", 0, "smallest spool sample set worth judging drift on (0 = default 3)")
	// Router-mode flags.
	peers := flag.String("peers", "", "router: comma-separated shard base URLs (e.g. http://h0:8093,http://h1:8093)")
	replicas := flag.Int("replicas", 0, "router: owners per wrapper key (0 = default 2, capped at peer count)")
	vnodes := flag.Int("vnodes", 0, "router: virtual nodes per peer on the hash ring (0 = default 128)")
	hedgeAfter := flag.Duration("hedge-after", 0, "router: hedge a straggling extract to the next replica after this delay (0 = no hedging)")
	proxyTimeout := flag.Duration("proxy-timeout", 0, "router: per-attempt proxy deadline (0 = default 5s)")
	healthInterval := flag.Duration("health-interval", time.Second, "router: shard health-poll period")
	flag.Parse()

	o := obs.New()
	if *traceExport != "" {
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return 1
		}
		defer f.Close()
		o.Trace.SetExport(f)
		fmt.Fprintf(os.Stderr, "serve: exporting traced spans to %s\n", *traceExport)
	}
	if *wideEventSample > 0 {
		lg := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		o.Log = obs.FuncLogger(func(name string, kv ...any) { lg.Info(name, kv...) })
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler http.Handler
	switch *mode {
	case "single", "shard":
		var fleetData []byte
		if *fleetPath != "" {
			var err error
			if fleetData, err = os.ReadFile(*fleetPath); err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				return 1
			}
		}
		s, err := serve.New(serve.Config{
			CacheDir:     *cacheDir,
			CacheCap:     *cacheCap,
			DiskCap:      *diskCap,
			FleetData:    fleetData,
			MaxBodyBytes: *maxBody,
			Observer:     o,
			Options:      machine.Options{MaxStates: *maxStates},
			Batch: wrapper.BatchOptions{
				Workers:    *workers,
				DocTimeout: *docTimeout,
			},
			CanaryFraction:  *canaryFraction,
			WideEventSample: *wideEventSample,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return 1
		}
		if *sampleDir != "" {
			ctrl, err := refresh.New(s, refresh.Config{
				Sampler:    refresh.NewDirSampler(*sampleDir),
				Interval:   *refreshInterval,
				MinSamples: *refreshMinSamples,
				Options:    machine.Options{MaxStates: *maxStates},
				Observer:   o,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				return 1
			}
			go ctrl.Run(ctx)
			fmt.Fprintf(os.Stderr, "serve: drift watcher sampling %s every %s\n", *sampleDir, *refreshInterval)
		}
		fmt.Fprintf(os.Stderr, "serve: %s mode, %d wrapper(s) loaded\n", *mode, len(s.Sites()))
		handler = s.Mux()
	case "router":
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Peers:        strings.Split(*peers, ","),
			Replicas:     *replicas,
			VirtualNodes: *vnodes,
			HedgeAfter:   *hedgeAfter,
			ProxyTimeout: *proxyTimeout,
			MaxBodyBytes: *maxBody,
			Membership:   cluster.MembershipConfig{Interval: *healthInterval},
			Observer:     o,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return 1
		}
		go rt.Run(ctx)
		fmt.Fprintf(os.Stderr, "serve: router mode, %d peer(s), %d replica(s) per key\n",
			rt.Ring().Len(), rt.Replicas())
		handler = rt.Mux()
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown -mode %q (want single, shard, or router)\n", *mode)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", ln.Addr())

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let in-flight
	// requests finish (bounded by -drain), and exit 0 on a clean stop so
	// restarts under a supervisor don't flap as failures.
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	if err := serve.ServeUntilShutdown(ctx, srv, ln, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "serve: drained, shutting down")
	return 0
}
