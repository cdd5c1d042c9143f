package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

func diskServer(t *testing.T, dir string, fleetData []byte, o *obs.Observer) *Server {
	t.Helper()
	s, err := New(Config{
		CacheDir:  dir,
		CacheCap:  8,
		DiskCap:   -1,
		FleetData: fleetData,
		Observer:  o,
		Batch:     wrapper.BatchOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeRestartSemantics is the persistence contract end to end: PUT a
// wrapper into a server with a cache dir, tear the server down, build a
// fresh one over the same directory, and the first POST /extract must
// succeed with the compiled artifact coming off disk — visible as a
// disk-tier hit (and no disk miss) in /metrics.json — without any
// re-registration.
func TestServeRestartSemantics(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)

	s1 := diskServer(t, dir, nil, obs.New())
	rec := do(t, s1, "PUT", "/wrappers/vs", payload)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT: status %d: %s", rec.Code, rec.Body)
	}
	var put struct {
		Persisted bool `json:"persisted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil || !put.Persisted {
		t.Fatalf("PUT response %s not persisted (%v)", rec.Body, err)
	}
	if n := s1.Cache().Disk().Len(); n != 1 {
		t.Fatalf("disk tier holds %d artifacts after PUT, want 1", n)
	}

	// "Restart": a new process image — fresh memory cache, fresh observer,
	// same directory. s1 is simply abandoned.
	o2 := obs.New()
	s2 := diskServer(t, dir, nil, o2)
	if got := len(s2.Sites()); got != 1 {
		t.Fatalf("restarted server serves %d keys, want 1", got)
	}
	body, _ := json.Marshal(extractRequest{Docs: []wrapper.BatchDoc{{Key: "vs", HTML: pageTop}}})
	rec = do(t, s2, "POST", "/extract", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("first extract after restart: status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []extractResult `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || !resp.Results[0].OK {
		t.Fatalf("first extract after restart failed: %s", rec.Body)
	}

	// The warm start is observable: restoring the wrapper hit the disk tier
	// instead of recompiling.
	mrec := do(t, s2, "GET", "/metrics.json", nil)
	var snap struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	c := snap.Metrics.Counters
	if c["extract_diskcache_hits_total"] < 1 {
		t.Errorf("counters = %v, want at least one disk hit", c)
	}
	if c["extract_diskcache_misses_total"] != 0 || c["extract_diskcache_corrupt_total"] != 0 {
		t.Errorf("counters = %v, want no disk misses or corruption on restart", c)
	}
	if g := snap.Metrics.Gauges["extract_diskcache_entries"]; g != 1 {
		t.Errorf("extract_diskcache_entries gauge = %d after restart, want 1", g)
	}

	health := do(t, s2, "GET", "/healthz", nil)
	var h struct {
		DiskCache struct {
			Entries int   `json:"entries"`
			Hits    int64 `json:"hits"`
		} `json:"diskCache"`
	}
	if err := json.Unmarshal(health.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.DiskCache.Entries != 1 || h.DiskCache.Hits < 1 {
		t.Errorf("healthz diskCache = %+v", h.DiskCache)
	}
}

// TestServeDeleteSurvivesRestart: a DELETE persists as a tombstone, so a
// restarted server does not resurrect the wrapper — even when the key
// originally came from the deploy-time fleet file, which loads before the
// registry replays.
func TestServeDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)

	// The fleet file ships the key; the registry must out-vote it.
	w, err := wrapper.Load(payload, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := wrapper.NewFleet()
	f.Add("shipped", w)
	fleetData, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}

	s1 := diskServer(t, dir, fleetData, obs.New())
	if rec := do(t, s1, "PUT", "/wrappers/runtime", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	for _, key := range []string{"shipped", "runtime"} {
		rec := do(t, s1, "DELETE", "/wrappers/"+key, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("DELETE %s: status %d: %s", key, rec.Code, rec.Body)
		}
		var del struct {
			Persisted bool `json:"persisted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &del); err != nil || !del.Persisted {
			t.Fatalf("DELETE %s response %s not persisted (%v)", key, rec.Body, err)
		}
	}

	s2 := diskServer(t, dir, fleetData, obs.New())
	if sites := s2.Sites(); len(sites) != 0 {
		t.Fatalf("restarted server serves %v, want nothing (deletes persisted)", sites)
	}
	for _, key := range []string{"shipped", "runtime"} {
		if rec := do(t, s2, "DELETE", "/wrappers/"+key, nil); rec.Code != http.StatusNotFound {
			t.Errorf("DELETE %s after restart: status %d, want 404", key, rec.Code)
		}
	}

	// Re-registering after a delete replaces the tombstone and persists again.
	if rec := do(t, s2, "PUT", "/wrappers/runtime", payload); rec.Code != http.StatusCreated {
		t.Fatalf("re-PUT after delete: %d", rec.Code)
	}
	s3 := diskServer(t, dir, nil, obs.New())
	if s3.Active("runtime") == nil {
		t.Fatal("re-registered wrapper lost after restart")
	}
}

// TestServeRestartSkipsCorruptRegistryEntry: a torn registry envelope takes
// out one registration, not the server.
func TestServeRestartSkipsCorruptRegistryEntry(t *testing.T) {
	dir := t.TempDir()
	payload := trainedPayload(t)
	s1 := diskServer(t, dir, nil, obs.New())
	if rec := do(t, s1, "PUT", "/wrappers/vs", payload); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d", rec.Code)
	}
	if err := s1.registry.write(record{
		Key:         "torn",
		LastVersion: 1,
		Active:      &versionedWrapper{Version: 1, Payload: payload},
	}); err != nil {
		t.Fatal(err)
	}
	// Truncate the second envelope as a crash mid-write would.
	blob, err := os.ReadFile(s1.registry.path("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s1.registry.path("torn"), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := diskServer(t, dir, nil, obs.New())
	if got := len(s2.Sites()); got != 1 {
		t.Fatalf("restarted server serves %d keys, want 1 (corrupt entry skipped)", got)
	}
}

// TestServeGracefulShutdown is the regression test for abrupt termination:
// canceling the serve context must let an in-flight request complete before
// the listener dies, and ServeUntilShutdown must return cleanly rather than
// surfacing http.ErrServerClosed.
func TestServeGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "drained")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeUntilShutdown(ctx, srv, ln, 5*time.Second) }()

	respc := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			respc <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		respc <- string(b)
	}()

	<-started
	cancel() // shutdown requested while the request is in flight
	select {
	case err := <-done:
		t.Fatalf("server exited before draining in-flight request: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-respc; got != "drained" {
		t.Fatalf("in-flight request got %q, want full response", got)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeUntilShutdown = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit after drain")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeShutdownDeadline: a request that outlives the drain window must
// not wedge shutdown — ServeUntilShutdown returns the deadline error.
func TestServeShutdownDeadline(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeUntilShutdown(ctx, srv, ln, 50*time.Millisecond) }()
	go http.Get("http://" + ln.Addr().String() + "/") //nolint:errcheck
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ServeUntilShutdown = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown wedged past its deadline")
	}
}

// TestRestoreEnvelopeFormats: registry envelopes as earlier builds wrote
// them — a legacy unversioned entry (payload in "wrapper"), a versioned
// entry mid-rollout, and a tombstone — restore into the same version state,
// and the legacy entry is rewritten without its "wrapper" field on the next
// write. An entry whose active payload no longer compiles serves nothing but
// keeps its version counter, so the key's next PUT numbers past it, across
// restarts too.
func TestRestoreEnvelopeFormats(t *testing.T) {
	dir := t.TempDir()
	payload, next := trainedPayload(t), futurePayload(t)
	reg, err := newWrapperRegistry(filepath.Join(dir, "wrappers"))
	if err != nil {
		t.Fatal(err)
	}
	var p map[string]any
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	p["expr"] = ".* <INPUT> ((" // does not parse
	broken, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	envelopes := map[string]string{
		"legacy": `{"key":"legacy","wrapper":` + string(payload) + `}`,
		"rolling": `{"key":"rolling","lastVersion":4,"active":{"version":3,"payload":` + string(payload) +
			`},"canary":{"version":4,"payload":` + string(next) + `},"prior":{"version":1,"payload":` +
			string(payload) + `},"lastOutcome":"promoted"}`,
		"gone":   `{"key":"gone","deleted":true,"lastVersion":2}`,
		"broken": `{"key":"broken","lastVersion":7,"active":{"version":7,"payload":` + string(broken) + `}}`,
	}
	for key, env := range envelopes {
		if err := os.WriteFile(reg.path(key), []byte(env), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := diskServer(t, dir, nil, obs.New())
	for key, want := range map[string]VersionState{
		"legacy":  {LastVersion: 1, Active: 1},
		"rolling": {LastVersion: 4, Active: 3, Canary: 4, Prior: 1, LastOutcome: "promoted"},
		"gone":    {LastVersion: 2, Deleted: true},
		"broken":  {LastVersion: 7},
	} {
		if got, ok := s.VersionState(key); !ok || got != want {
			t.Errorf("%s: restored %+v (known %v), want %+v", key, got, ok, want)
		}
	}
	if sites := s.Sites(); len(sites) != 2 || sites[0] != "legacy" || sites[1] != "rolling" {
		t.Fatalf("restored sites %v, want legacy and rolling", sites)
	}
	if !s.HasCanary("rolling") {
		t.Fatal("in-flight canary not re-staged")
	}

	if _, err := s.DeployCanary("legacy", next); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(reg.path("legacy"))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env["wrapper"]; ok || env["active"] == nil || env["canary"] == nil {
		t.Fatalf("rewritten legacy envelope has fields %v", env)
	}

	if v, err := s.PutWrapper(context.Background(), "broken", payload); err != nil || v != 8 {
		t.Fatalf("PUT over the uncompilable entry = version %d (%v), want 8", v, err)
	}
	s = diskServer(t, dir, nil, obs.New())
	if got, _ := s.VersionState("broken"); got != (VersionState{LastVersion: 8, Active: 8}) || s.Active("broken") == nil {
		t.Fatalf("after a second restart: %+v (serving %v), want version 8 active", got, s.Active("broken") != nil)
	}
}

// withExtraSigma returns payload with one more Σ name, so it compiles to an
// artifact of its own while extracting as before.
func withExtraSigma(t *testing.T, payload []byte, name string) []byte {
	t.Helper()
	var p map[string]any
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	p["sigma"] = append(p["sigma"].([]any), name)
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreParallelMatchesOneWorker: restore loads the registry on
// GOMAXPROCS workers and must leave exactly the state a one-worker restore
// leaves — served keys, every key's version state and version gauges, the
// restored/deleted/skipped counts and the log line — over a registry of
// more than 2×GOMAXPROCS keys that holds every case restore tells apart: two
// keys sharing one artifact, a tuple key, a tombstone for a key the fleet
// file also ships, a torn envelope, an active payload that no longer
// compiles (its counter is kept) and a canary that fails (it is dropped).
func TestRestoreParallelMatchesOneWorker(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	dir := t.TempDir()
	payload, next := trainedPayload(t), futurePayload(t)
	var p map[string]any
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	p["expr"] = ".* <INPUT> ((" // does not parse
	broken, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := wrapper.Load(payload, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet := wrapper.NewFleet()
	fleet.Add("shipped", shipped)
	fleetData, err := json.Marshal(fleet)
	if err != nil {
		t.Fatal(err)
	}

	reg, err := newWrapperRegistry(filepath.Join(dir, "wrappers"))
	if err != nil {
		t.Fatal(err)
	}
	records := []record{
		{Key: "twin-a", LastVersion: 1, Active: &versionedWrapper{Version: 1, Payload: payload}},
		{Key: "twin-b", LastVersion: 2, Active: &versionedWrapper{Version: 2, Payload: payload}},
		{Key: "tuple", LastVersion: 1, Active: &versionedWrapper{Version: 1, Payload: tuplePayload(t)}},
		{Key: "shipped", LastVersion: 3, Deleted: true},
		{Key: "torn", LastVersion: 1, Active: &versionedWrapper{Version: 1, Payload: payload}},
		{Key: "broken", LastVersion: 7, Active: &versionedWrapper{Version: 7, Payload: broken}},
		{Key: "bad-canary", LastVersion: 5, Active: &versionedWrapper{Version: 4, Payload: payload},
			Canary: &versionedWrapper{Version: 5, Payload: broken}},
		{Key: "rolling", LastVersion: 4, Active: &versionedWrapper{Version: 3, Payload: payload},
			Canary: &versionedWrapper{Version: 4, Payload: next}, Prior: &versionedWrapper{Version: 1, Payload: payload}},
	}
	for i := 0; len(records) < 4*procs+8; i++ {
		records = append(records, record{Key: fmt.Sprintf("site-%d", i), LastVersion: 1,
			Active: &versionedWrapper{Version: 1, Payload: withExtraSigma(t, payload, fmt.Sprintf("EXT%d", i))}})
	}
	for _, rec := range records {
		if err := reg.write(rec); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(reg.path("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reg.path("torn"), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	type restoredState struct {
		sites  []string
		states map[string]VersionState
		gauges map[string][2]int64
		log    string
	}
	restore := func(workers int) restoredState {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		var log bytes.Buffer
		o := obs.New()
		s, err := New(Config{CacheDir: dir, CacheCap: 8, DiskCap: -1, FleetData: fleetData, Observer: o, RestoreLog: &log})
		if err != nil {
			t.Fatal(err)
		}
		got := restoredState{sites: s.Sites(), states: map[string]VersionState{}, gauges: map[string][2]int64{}, log: log.String()}
		for _, rec := range records {
			if vs, ok := s.VersionState(rec.Key); ok {
				got.states[rec.Key] = vs
			}
			got.gauges[rec.Key] = [2]int64{
				o.Gauge(obs.WithLabels("refresh_active_version", "site", rec.Key)).Value(),
				o.Gauge(obs.WithLabels("refresh_canary_version", "site", rec.Key)).Value(),
			}
		}
		if err := s.Extract("twin-b", pageTop); err != nil {
			t.Errorf("restored on %d worker(s): twin-b: %v", workers, err)
		}
		return got
	}
	// The first restore compiles every artifact and writes it through, so
	// both compared restores decode the same artifacts from disk.
	restore(procs)
	one, all := restore(1), restore(procs)

	if !reflect.DeepEqual(one, all) {
		t.Fatalf("restore on %d workers differs from one worker:\n got %+v\nwant %+v", procs, all, one)
	}
	n := len(records)
	want := fmt.Sprintf("serve: restored %d wrapper(s) from %s (1 deleted, 3 skipped)\n", n-3, dir)
	if all.log != want {
		t.Errorf("restore log %q, want %q", all.log, want)
	}
	if len(all.sites) != n-3 || slices.Contains(all.sites, "shipped") || slices.Contains(all.sites, "broken") {
		t.Errorf("restored sites %v, want every key but shipped, torn and broken", all.sites)
	}
	for key, want := range map[string]VersionState{
		"twin-b":     {LastVersion: 2, Active: 2},
		"shipped":    {LastVersion: 3, Deleted: true},
		"broken":     {LastVersion: 7},
		"bad-canary": {LastVersion: 5, Active: 4},
		"rolling":    {LastVersion: 4, Active: 3, Canary: 4, Prior: 1},
	} {
		if got := all.states[key]; got != want {
			t.Errorf("%s: restored %+v, want %+v", key, got, want)
		}
	}
	if _, ok := all.states["torn"]; ok {
		t.Error("torn envelope restored a record")
	}
}
