package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"resilex/internal/obs"
	"resilex/internal/perturb"
	"resilex/internal/refresh"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// The E19 drift experiment drives the whole continuous-refresh pipeline —
// versioned registry, drift watcher, re-induction, stride-routed canary,
// metric-gated promotion — against a real serve.Server over HTTP, twice:
//
//   - benign drift: the site redesigns (perturbed fig1Future pages land in
//     the sample spool AND in live traffic). The watcher detects the
//     degradation, re-induces a candidate from the drifted samples, and the
//     canary wins its observation window — promoted, with every request
//     answered throughout.
//
//   - semantic break: the spool captures an unrepresentative page family
//     (a bot-served alternate layout) while live traffic never changes. The
//     re-induced candidate misses real traffic; every canary-routed miss
//     falls back to the active wrapper inside the request, the canary loses
//     the window, and the watcher rolls it back — again with zero failed
//     requests and zero failed extractions.
//
// "Failed" is an HTTP status other than 200; extraction outcomes are
// tallied separately from the per-doc ok flags.

// e19AlienPage is one page of the unrepresentative family the regression
// scenario feeds the sampler: marked (so re-induction proceeds) but from a
// layout family live traffic never uses.
func e19AlienPage(n int) string {
	return fmt.Sprintf(`<ul class="catalog"><li>part group %d</li>
<li><form method="post" action="search.cgi">
<input type="text" size="15" name="value" data-target />
</form></li></ul>`, n)
}

// e19DriftPages perturbs the fig1Future redesign into n distinct drifted
// pages, preserving the data-target marker (perturb.HTMLPerturber tracks
// the target span through every edit).
func e19DriftPages(seed int64, n int) []string {
	span, ok := perturb.FindTag(fig1Future, "input", 1)
	if !ok {
		panic("drift bench: fig1Future lost its marked input")
	}
	p := perturb.NewHTML(seed)
	pages := make([]string, n)
	for i := range pages {
		pages[i], _ = p.Apply(fig1Future, span, i+1)
	}
	return pages
}

// e19Phase is what one traffic phase measured.
type e19Phase struct {
	label    string
	requests int
	failed   int // HTTP status != 200
	docs     int
	okDocs   int // per-doc ok flags in 200 responses
}

// e19Result is one scenario run: the traffic phases bracketing the two
// controller ticks, plus the rollout verdict read back from the versions
// endpoint and the refresh counters.
type e19Result struct {
	phases        []e19Phase
	outcome       string
	activeVersion uint64
	canaryObs     uint64 // canary-routed extractions in the observation window
	fallbacks     uint64
	deploys       int64
	promotes      int64
	rollbacks     int64
}

// runDriftBench boots one real serve.Server (canary fraction 0.25) behind
// httptest, registers the e15 wrapper as v1, wires a refresh.Controller to a
// scripted sample spool, and interleaves fixed-count traffic phases with
// explicit controller ticks: tick 1 sees the drifted spool and stages a
// canary, the canary phase fills the observation window, tick 2 renders the
// verdict. benign selects which pages the spool and the live traffic carry.
func runDriftBench(benign bool, reqs, docsPer int, seed int64) e19Result {
	o := obs.New()
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

	s, err := serve.New(serve.Config{
		CacheCap:       64,
		CanaryFraction: 0.25,
		Options:        DefaultOptions,
		Batch:          wrapper.BatchOptions{Workers: 1},
		Observer:       o,
	})
	if err != nil {
		panic(err)
	}
	front := httptest.NewServer(s.Mux())
	defer front.Close()
	client := &http.Client{}

	req, _ := http.NewRequest(http.MethodPut, front.URL+"/wrappers/vs", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		panic(fmt.Sprintf("drift bench: registering v1: status %d", resp.StatusCode))
	}

	// The spool and the live traffic. Benign drift: the site redesigned, so
	// both carry the same perturbed pages. Semantic break: the spool caught
	// an alien family while real traffic never moved.
	drifted := e19DriftPages(seed, 4)
	spool, traffic := drifted, drifted
	if !benign {
		spool = []string{e19AlienPage(0), e19AlienPage(1), e19AlienPage(2)}
		traffic = []string{fig1Top, fig1Bottom}
	}

	// One traffic phase routes reqs·docsPer/4 extractions to the canary
	// (stride 4 at fraction 0.25); requiring half of that keeps the window
	// mature after a single phase at any -quick scale.
	minObs := uint64(reqs * docsPer / 8)
	if minObs < 5 {
		minObs = 5
	}
	ctrl, err := refresh.New(s, refresh.Config{
		Sampler: refresh.SamplerFunc(func(site string) ([]string, error) {
			return spool, nil
		}),
		MinCanaryObservations: minObs,
		Options:               DefaultOptions,
		Observer:              o,
	})
	if err != nil {
		panic(err)
	}

	// Pre-marshal one request body cycling the traffic pages.
	var buf bytes.Buffer
	buf.WriteString(`{"docs":[`)
	for d := 0; d < docsPer; d++ {
		if d > 0 {
			buf.WriteByte(',')
		}
		doc, _ := json.Marshal(wrapper.BatchDoc{Key: "vs", HTML: traffic[d%len(traffic)]})
		buf.Write(doc)
	}
	buf.WriteString(`]}`)
	body := buf.Bytes()

	res := e19Result{}
	phase := func(label string) {
		ph := e19Phase{label: label}
		for i := 0; i < reqs; i++ {
			req, _ := http.NewRequest(http.MethodPost, front.URL+"/extract", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			ph.requests++
			ph.docs += docsPer
			if err != nil || resp.StatusCode != http.StatusOK {
				ph.failed++
				if resp != nil {
					resp.Body.Close()
				}
				continue
			}
			var out struct {
				Results []struct {
					OK bool `json:"ok"`
				} `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				ph.failed++
				continue
			}
			for _, r := range out.Results {
				if r.OK {
					ph.okDocs++
				}
			}
		}
		res.phases = append(res.phases, ph)
	}

	ctx := context.Background()
	phase("v1")
	ctrl.Tick(ctx) // drift detection → canary deploy
	canaryOK, canaryErr, _, _ := s.CanaryStats("vs")
	if canaryOK+canaryErr != 0 {
		panic("drift bench: observation window not fresh after deploy")
	}
	phase("canary")
	canaryOK, canaryErr, _, _ = s.CanaryStats("vs")
	res.canaryObs = canaryOK + canaryErr
	ctrl.Tick(ctx) // window is mature → promote or rollback
	phase("after")

	vresp, err := client.Get(front.URL + "/wrappers/vs/versions")
	if err != nil {
		panic(err)
	}
	var status struct {
		LastOutcome string `json:"lastOutcome"`
		Active      struct {
			Version uint64 `json:"version"`
		} `json:"active"`
		Stats struct {
			Fallback uint64 `json:"fallback"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&status); err != nil {
		panic(err)
	}
	vresp.Body.Close()
	res.outcome = status.LastOutcome
	res.activeVersion = status.Active.Version
	res.fallbacks = status.Stats.Fallback

	snap := o.Metrics.Snapshot()
	res.deploys = snap.Counters[obs.WithLabels("refresh_canary_deploy_total", "site", "vs")]
	res.promotes = snap.Counters[obs.WithLabels("refresh_promote_total", "site", "vs")]
	res.rollbacks = snap.Counters[obs.WithLabels("refresh_rollback_total", "site", "vs")]
	return res
}

// E19Drift measures the continuous-refresh pipeline end to end: benign
// drift must end promoted, a semantic break must end rolled back, and both
// must lose zero requests — TestE19RefreshZeroFailedRequests asserts the
// same properties independently of the emitted table.
func E19Drift(reqs, docsPer int, seed int64) Table {
	t := Table{
		ID:     "E19",
		Title:  "continuous refresh: drift watch, canary rollout, metric-gated promotion",
		Claim:  "refresh extension: benign drift re-induces and promotes a canary, a semantic break rolls back automatically, and either way every request is answered (0 failed)",
		Header: []string{"scenario", "phase", "requests", "failed", "docs ok", "verdict"},
	}
	for _, sc := range []struct {
		name   string
		benign bool
	}{
		{"benign drift", true},
		{"semantic break", false},
	} {
		res := runDriftBench(sc.benign, reqs, docsPer, seed)
		verdict := fmt.Sprintf("%s (v%d active, %d canary obs)",
			res.outcome, res.activeVersion, res.canaryObs)
		for i, ph := range res.phases {
			shown := ""
			if i == 0 {
				shown = sc.name
			}
			v := ""
			if i == len(res.phases)-1 {
				v = verdict
			}
			t.Rows = append(t.Rows, []string{
				shown, ph.label, fmt.Sprint(ph.requests), fmt.Sprint(ph.failed),
				fmt.Sprintf("%d/%d", ph.okDocs, ph.docs), v,
			})
		}
	}
	return t
}
