package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (TestSpecMatchesBenchmarkJSON keeps the two in step) and adds
// each end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers a user of cmd/serve sees, measured over HTTP
// with tracing off, on every workload. Timings are at the reference speed
// (speed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},         // exec to ready: boot, registrations, one warm-up per key
	{"closed_p50_ms", "ms", "lower"},  // read latency, closed loop, 2 clients
	{"closed_p95_ms", "ms", "lower"},  // read latency, closed loop, 2 clients
	{"put_p50_ms", "ms", "lower"},     // wrapper registrations (PUT /wrappers/{key})
	{"docs_per_s", "1/s", "higher"},   // closed loop, 2 clients
	{"cpu_ms_per_doc", "ms", "lower"}, // server utime+stime over the closed loop
	{"peak_rss_mb", "MB", "lower"},    // server VmHWM
}

// perLayer are the traced run's numbers, one or more per layer the request
// path crosses, named <layer>.<quantity>.
var perLayer = []metricDef{
	{"gen.open_p50_ms", "ms", "lower"}, // read latency, open loop, from due time
	{"gen.open_p99_ms", "ms", "lower"}, // read latency, open loop, from due time
	{"gen.closed_p99_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.requests", "count", "higher"},

	{"serve.handler_p50_us", "us", "lower"},
	{"serve.json_decode_us", "us", "lower"},
	{"serve.json_encode_us", "us", "lower"},
	{"serve.wait_frac", "ratio", "lower"},
	{"serve.put_handler_ms", "ms", "lower"},
	{"serve.put_tail_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},

	{"wrapper.extract_us", "us", "lower"},
	{"wrapper.extract_allocs", "count", "lower"},
	{"wrapper.extract_kb", "KB", "lower"},
	{"wrapper.batch_us_per_doc", "us", "lower"},
	{"wrapper.stream_ms_per_mb", "ms/MB", "lower"},
	{"wrapper.stream_allocs", "count", "lower"},
	{"wrapper.extract_all_us", "us", "lower"},
	{"wrapper.load_cached_us", "us", "lower"},
	{"wrapper.hit_frac", "ratio", "higher"},

	{"htmltok.scan_ns_per_byte", "ns/B", "lower"},
	{"htmltok.map_ns_per_token", "ns", "lower"},
	{"htmltok.feed_ns_per_byte", "ns/B", "lower"},
	{"htmltok.streamsym_ns_per_token", "ns", "lower"},
	{"htmltok.tokens_per_kb", "count", "lower"},
	{"htmltok.carry_frac", "ratio", "lower"},

	{"extract.find_ns_per_token", "ns", "lower"},
	{"extract.streamrun_ns_per_token", "ns", "lower"},
	{"extract.live_threads_max", "count", "lower"},
	{"extract.compile_ms", "ms", "lower"},
	{"extract.decode_artifact_us", "us", "lower"},
	{"extract.encode_artifact_us", "us", "lower"},
	{"extract.cache_mem_us", "us", "lower"},
	{"extract.cache_disk_us", "us", "lower"},
	{"extract.tier_mem_frac", "ratio", "higher"},
	{"extract.tier_disk_frac", "ratio", "higher"},
	{"extract.tier_compile_frac", "ratio", "lower"},
	{"extract.stream_pool_hit_frac", "ratio", "higher"},
	{"extract.stream_fallback", "count", "lower"},

	{"spanner.run_ns_per_token", "ns", "lower"},
	{"spanner.enum_ns_per_vector", "ns", "lower"},
	{"spanner.nodes_per_token", "count", "lower"},
	{"spanner.vectors_per_doc", "count", "higher"},

	{"machine.subset_states_per_compile", "count", "lower"},

	{"recon.stage_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metricValue is one reported number. Samples (and, for a percentile,
// Beyond: how many samples lie past it) say what the value rests on.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// tally counts attempts and failures, collects each window's latencies at
// the reference speed, and checks that every key's write versions are
// distinct and consecutive.
func (h *httpRun) tally() {
	fail := func(err error) {
		h.failed++
		if len(h.errors) < 5 {
			h.errors = append(h.errors, err.Error())
		}
	}
	versions := map[string][]uint64{}
	for i := range h.windows {
		win := &h.windows[i]
		for phase, rs := range [][]result{win.open, win.closed} {
			scale := refScale(win.openSpeed, win.openSteal)
			if phase == 1 {
				scale = refScale(win.closedSpeed, win.closedSteal)
			}
			for _, r := range rs {
				h.attempted++
				if r.err != nil {
					fail(r.err)
					continue
				}
				lat := ms(r.latency) * scale
				switch {
				case r.op.write():
					versions[r.op.key] = append(versions[r.op.key], r.version)
					if phase == 1 {
						win.closedWrites = append(win.closedWrites, lat)
					}
				case phase == 0:
					win.openReads = append(win.openReads, lat)
				default:
					win.closedReads = append(win.closedReads, lat)
					win.docs += len(r.op.pages)
				}
			}
		}
	}
	for key, vs := range versions {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i, v := range vs {
			if want := h.w.baseVersion[key] + uint64(i) + 1; v != want {
				fail(fmt.Errorf("key %s: write %d got version %d, want %d (versions must be distinct and consecutive)", key, i, v, want))
				break
			}
		}
	}
}

// windowStats is what one window measured, at the reference speed; a
// percentile without enough samples beyond it is 0.
type windowStats struct {
	OpenSpeed   float64 `json:"open_speed"`
	OpenSteal   float64 `json:"open_steal"`
	ClosedSpeed float64 `json:"closed_speed"`
	ClosedSteal float64 `json:"closed_steal"`
	OpenReads   int     `json:"open_reads"`
	OpenP50     float64 `json:"open_p50_ms"`
	ClosedReads int     `json:"closed_reads"`
	ClosedP50   float64 `json:"closed_p50_ms"`
	Docs        int     `json:"closed_docs"`
	DocsPerS    float64 `json:"docs_per_s"`
	CPUMsPerDoc float64 `json:"cpu_ms_per_doc"`
}

func (h *httpRun) windowStats() []windowStats {
	out := make([]windowStats, len(h.windows))
	for i, w := range h.windows {
		st := &out[i]
		st.OpenSpeed, st.OpenSteal, st.ClosedSpeed, st.ClosedSteal = w.openSpeed, w.openSteal, w.closedSpeed, w.closedSteal
		st.OpenReads, st.ClosedReads, st.Docs = len(w.openReads), len(w.closedReads), w.docs
		st.OpenP50, _, _ = percentile(w.openReads, 0.5)
		st.ClosedP50, _, _ = percentile(w.closedReads, 0.5)
		st.DocsPerS = frac(float64(w.docs), w.elapsed.Seconds()*refScale(w.closedSpeed, w.closedSteal))
		st.CPUMsPerDoc = frac(float64(w.ticks)*1000/clockTicks/w.closedSpeed, float64(w.docs))
	}
	return out
}

// setPercentile sets m[name] to the p-quantile of xs, or leaves it out when
// too few samples lie beyond it.
func setPercentile(m map[string]metricValue, name string, xs []float64, p float64, note string) {
	if v, beyond, ok := percentile(xs, p); ok {
		m[name] = metricValue{Value: v, Unit: unitOf(name), Samples: len(xs), Beyond: beyond, Note: note}
	}
}

// maxSteal is the share of the host's CPU time the hypervisor may steal
// during a closed-loop window or a group of boots before its measurements
// are set aside. On the calibration host steal stayed below 1% most of the
// time, and windows with 5–21% lost up to 40% of their throughput, far
// more than the speed factor accounts for.
const maxSteal = 0.03

// calm returns the elements of xs whose steal is at most maxSteal, and
// never fewer than the least-stolen half of them.
func calm[T any](xs []T, steal func(T) float64) []T {
	out := append([]T(nil), xs...)
	sort.SliceStable(out, func(i, j int) bool { return steal(out[i]) < steal(out[j]) })
	n := (len(out) + 1) / 2
	for n < len(out) && steal(out[n]) <= maxSteal {
		n++
	}
	return out[:n]
}

// endToEnd computes the end-to-end metrics over the run's calm closed-loop
// windows and boots.
func (h *httpRun) endToEnd() map[string]metricValue {
	m := map[string]metricValue{}
	boots := calm(h.boots, func(b bootSample) float64 { return b.Steal })
	if len(boots) > 0 {
		secs := make([]float64, len(boots))
		for i, b := range boots {
			secs[i] = b.Seconds * refScale(b.Speed, b.Steal)
		}
		m["setup_s"] = metricValue{Value: median(secs), Unit: "s", Samples: len(secs), Note: "median of boots"}
	}
	windows := calm(h.windows, func(w window) float64 { return w.closedSteal })
	note := fmt.Sprintf("closed loop, %d of %d windows", len(windows), len(h.windows))
	var reads, writes []float64
	var docs int
	var secs, cpu float64
	for _, w := range windows {
		reads = append(reads, w.closedReads...)
		writes = append(writes, w.closedWrites...)
		docs += w.docs
		secs += w.elapsed.Seconds() * refScale(w.closedSpeed, w.closedSteal)
		cpu += float64(w.ticks) * 1000 / clockTicks / w.closedSpeed
	}
	setPercentile(m, "closed_p50_ms", reads, 0.5, note)
	setPercentile(m, "closed_p95_ms", reads, 0.95, note)
	if len(writes) > 0 {
		setPercentile(m, "put_p50_ms", writes, 0.5, note+", writes")
	} else {
		setPercentile(m, "put_p50_ms", bootPuts(boots), 0.5, "boot-time registrations")
	}
	if docs > 0 {
		m["docs_per_s"] = metricValue{Value: float64(docs) / secs, Unit: "1/s", Samples: docs, Note: note}
		m["cpu_ms_per_doc"] = metricValue{Value: cpu / float64(docs), Unit: "ms", Samples: docs, Note: note}
	}
	if h.rssMB > 0 {
		m["peak_rss_mb"] = metricValue{Value: h.rssMB, Unit: "MB", Samples: 1}
	}
	return m
}

// putSamples are the registration latencies of the whole run: the
// closed-loop writes where the workload writes under load (registry-churn),
// otherwise the timed boots' registrations.
func (h *httpRun) putSamples() ([]float64, string) {
	var out []float64
	for _, w := range h.windows {
		out = append(out, w.closedWrites...)
	}
	if len(out) > 0 {
		return out, "closed-loop writes"
	}
	return bootPuts(h.boots), "boot-time registrations"
}

// bootPuts are the registration latencies of boots, at the reference speed.
func bootPuts(boots []bootSample) []float64 {
	var out []float64
	for _, b := range boots {
		for _, p := range b.PutsMs {
			out = append(out, p*refScale(b.Speed, b.Steal))
		}
	}
	return out
}

// reads are the open-loop and the closed-loop read latencies of the whole
// run.
func (h *httpRun) reads() (open, closed []float64) {
	for _, w := range h.windows {
		open = append(open, w.openReads...)
		closed = append(closed, w.closedReads...)
	}
	return open, closed
}
