// Package refresh is the continuous wrapper-maintenance loop: a background
// drift watcher that samples live pages per site off the request path,
// detects extraction degradation, re-runs the induce→maximize pipeline of
// internal/learn over freshly marked samples under the existing
// state/deadline budgets, and canary-deploys the resulting wrapper through
// the versioned registry.
//
// The controller closes the maintenance loop of Algorithm 6.2
// operationally, off the request path and *before* users see failures:
// sampled pages that stop parsing trigger re-induction, the candidate
// serves a configured fraction of live traffic as a canary, and promotion
// is metric-gated: the canary's extraction-success rate over
// the observation window must be at least the active version's. A canary
// that regresses is rolled back automatically; because a canary miss falls
// back to the active wrapper inside the serving path, the whole experiment
// loses zero requests either way.
//
// The package talks to the serving layer through the small Deployment
// surface (satisfied structurally by serve.Server), so it can be driven
// against a fake in tests and composed into any process that owns a
// versioned registry.
package refresh

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// Deployment is the controller's view of a serving stack with a versioned
// registry. serve.Server implements it.
type Deployment interface {
	// Sites lists every key with an active wrapper.
	Sites() []string
	// ActivePayload returns the persisted JSON of the site's active version,
	// or nil when none is recorded.
	ActivePayload(site string) []byte
	// Extract runs the site's active wrapper over one page (the drift probe).
	Extract(site, html string) error
	// HasCanary reports whether a canary is staged for the site.
	HasCanary(site string) bool
	// DeployCanary stages payload as the site's canary version.
	DeployCanary(site string, payload []byte) (uint64, error)
	// CanaryStats reports the observation window since the canary deploy.
	CanaryStats(site string) (canaryOK, canaryErr, activeOK, activeErr uint64)
	// Promote makes the staged canary active (version 0 = whatever is staged).
	Promote(site string, version uint64) error
	// Rollback discards the staged canary (version 0 = whatever is staged).
	Rollback(site string, version uint64) error
}

// Sampler supplies recent live pages for a site, off the request path — a
// spool directory an ingest process drops pages into, a capture buffer, or
// a scripted feed in tests.
type Sampler interface {
	Sample(site string) ([]string, error)
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(site string) ([]string, error)

// Sample calls f.
func (f SamplerFunc) Sample(site string) ([]string, error) { return f(site) }

// Config tunes a Controller. Sampler is required; everything else has a
// production-shaped default.
type Config struct {
	// Sampler supplies the per-site page samples driving drift detection.
	Sampler Sampler
	// Marker marks the extraction target on a sampled page for
	// re-induction: an operator queue, a weak heuristic, or the data-target
	// attribute. The default accepts pages carrying wrapper.MarkerAttr and
	// skips the rest.
	Marker func(html string) (wrapper.Target, bool)
	// Interval is the watch period of Run. Default 30s.
	Interval time.Duration
	// Jitter spreads each interval uniformly within ±Jitter·Interval so a
	// fleet of controllers does not sample in lockstep. 0 selects the
	// default 0.1; negative disables.
	Jitter float64
	// MinSamples is the smallest sample set worth judging drift on.
	// Default 3.
	MinSamples int
	// DriftThreshold is the sampled miss rate at which re-induction
	// triggers. Default 0.5.
	DriftThreshold float64
	// MinCanaryObservations is how many canary-routed extractions the
	// observation window needs before the promote/rollback verdict.
	// Default 20.
	MinCanaryObservations uint64
	// Options is the construction budget for re-induction — the same
	// state/deadline levers the serving path compiles under.
	Options machine.Options
	// Observer receives the refresh_* telemetry. nil disables observation.
	Observer *obs.Observer
	// Rand is the jitter source, injectable for deterministic tests.
	// Default math/rand.
	Rand func() float64
}

func (c Config) withDefaults() Config {
	if c.Marker == nil {
		c.Marker = func(html string) (wrapper.Target, bool) {
			if strings.Contains(html, wrapper.MarkerAttr) {
				return wrapper.TargetMarker(), true
			}
			return wrapper.Target{}, false
		}
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
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
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.5
	}
	if c.MinCanaryObservations == 0 {
		c.MinCanaryObservations = 20
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// Controller is the drift watcher. One controller watches every site of one
// deployment; Tick is one deterministic pass (what the benchmark drives),
// Run loops with jitter until the context is canceled.
type Controller struct {
	deploy Deployment
	cfg    Config
	obs    *obs.Observer
}

// New builds a controller over the deployment.
func New(deploy Deployment, cfg Config) (*Controller, error) {
	if deploy == nil {
		return nil, fmt.Errorf("refresh: nil deployment")
	}
	if cfg.Sampler == nil {
		return nil, fmt.Errorf("refresh: a Sampler is required")
	}
	cfg = cfg.withDefaults()
	return &Controller{deploy: deploy, cfg: cfg, obs: cfg.Observer}, nil
}

// Run watches until ctx is canceled, pausing a jittered Interval between
// passes.
func (c *Controller) Run(ctx context.Context) {
	for {
		d := c.cfg.Interval
		if c.cfg.Jitter > 0 {
			j := time.Duration(float64(d) * (1 + (2*c.cfg.Rand()-1)*c.cfg.Jitter))
			if j > 0 {
				d = j
			}
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		c.Tick(ctx)
	}
}

// Tick runs one watch pass over every site: judge any canary whose
// observation window is mature, and otherwise sample for drift and
// canary-deploy a re-induced wrapper when degradation crosses the
// threshold; a drifted tuple site is counted and skipped. Deterministic —
// no clocks, no randomness — so tests and the E19 benchmark drive the
// pipeline tick by tick.
func (c *Controller) Tick(ctx context.Context) {
	c.obs.Counter("refresh_tick_total").Inc()
	// Each pass is its own trace, so a rollout decision is reconstructable
	// end to end from GET /debug/traces/{id} exactly like a served request.
	ctx = obs.ContextWithTrace(obs.NewContext(ctx, c.obs), obs.TraceContext{TraceID: obs.NewTraceID()})
	ctx, sp := c.obs.StartSpan(ctx, "refresh.tick")
	defer sp.End()
	for _, site := range c.deploy.Sites() {
		if ctx.Err() != nil {
			return
		}
		sctx, ssp := c.obs.StartSpan(ctx, "refresh.site")
		ssp.SetStr("site", site)
		c.checkSite(sctx, site)
		ssp.End()
	}
}

func (c *Controller) checkSite(ctx context.Context, site string) {
	if c.deploy.HasCanary(site) {
		c.judgeCanary(site)
		return
	}
	samples, err := c.cfg.Sampler.Sample(site)
	if err != nil {
		c.count("refresh_sample_errors_total", "site", site)
		return
	}
	c.obs.Counter(obs.WithLabels("refresh_sample_total", "site", site)).Add(int64(len(samples)))
	if len(samples) < c.cfg.MinSamples {
		c.count("refresh_skip_total", "reason", "insufficient_samples")
		return
	}
	misses := 0
	for _, page := range samples {
		if c.deploy.Extract(site, page) != nil {
			misses++
		}
	}
	rate := float64(misses) / float64(len(samples))
	c.obs.Gauge(obs.WithLabels("refresh_drift_rate_pct", "site", site)).Set(int64(rate * 100))
	if rate < c.cfg.DriftThreshold {
		return
	}
	c.count("refresh_drift_detected_total", "site", site)
	if wrapper.IsTuplePayload(c.deploy.ActivePayload(site)) {
		// Induction builds single-pivot wrappers, and the serving path
		// canaries only those: a tuple site's drift is reported, not acted on.
		c.count("refresh_skip_total", "reason", "tuple")
		return
	}
	c.induceAndDeploy(ctx, site, samples)
}

// induceAndDeploy marks the drifted samples, re-runs induction + pivot
// maximization over them under the configured budget, and stages the result
// as the site's canary. The candidate's tokenizer configuration is carried
// over from the active version's persisted payload; its alphabet comes from
// the samples alone, so the candidate commits to the *new* layout family —
// a candidate induced from unrepresentative samples will miss live pages,
// lose the canary comparison, and be rolled back, which is the safety the
// canary gate exists to provide.
func (c *Controller) induceAndDeploy(ctx context.Context, site string, pages []string) {
	var samples []wrapper.Sample
	for _, page := range pages {
		target, ok := c.cfg.Marker(page)
		if !ok {
			continue
		}
		samples = append(samples, wrapper.Sample{HTML: page, Target: target})
	}
	if len(samples) < c.cfg.MinSamples {
		c.count("refresh_skip_total", "reason", "unmarked_samples")
		return
	}
	cfg := c.trainConfig(site)
	cfg.Options = c.cfg.Options.WithContext(ctx)
	cand, err := wrapper.Train(samples, cfg)
	if err != nil {
		c.count("refresh_induce_total", "outcome", "error")
		c.obs.Event("refresh.induce.error", "site", site, "error", err.Error())
		return
	}
	payload, err := cand.MarshalJSON()
	if err != nil {
		c.count("refresh_induce_total", "outcome", "error")
		return
	}
	c.count("refresh_induce_total", "outcome", "ok")
	version, err := c.deploy.DeployCanary(site, payload)
	if err != nil {
		c.count("refresh_deploy_total", "outcome", "error")
		c.obs.Event("refresh.deploy.error", "site", site, "error", err.Error())
		return
	}
	c.count("refresh_deploy_total", "outcome", "ok")
	c.obs.Event("refresh.canary", "site", site, "version", fmt.Sprint(version))
}

// trainConfig recovers the tokenizer configuration of the site's active
// version from its persisted payload, so the candidate tokenizes pages the
// same way. The alphabet is deliberately NOT carried over (no ExtraTags):
// Σ comes from the drifted samples, committing the candidate to the new
// layout family.
func (c *Controller) trainConfig(site string) wrapper.Config {
	var cfg struct {
		DropEndTags bool     `json:"dropEndTags"`
		KeepText    bool     `json:"keepText"`
		AttrKeys    []string `json:"attrKeys"`
		Skip        []string `json:"skip"`
	}
	if payload := c.deploy.ActivePayload(site); payload != nil {
		_ = json.Unmarshal(payload, &cfg) // best effort; zero config is valid
	}
	return wrapper.Config{
		DropEndTags: cfg.DropEndTags,
		KeepText:    cfg.KeepText,
		AttrKeys:    cfg.AttrKeys,
		Skip:        cfg.Skip,
	}
}

// judgeCanary renders the promote/rollback verdict once the observation
// window is mature: promote when the canary's extraction-success rate is at
// least the active version's over the same window, roll back otherwise.
// With no active-routed observations to compare against (e.g. a traffic
// fraction of 1), the canary must clear the drift threshold on its own.
func (c *Controller) judgeCanary(site string) {
	canaryOK, canaryErr, activeOK, activeErr := c.deploy.CanaryStats(site)
	canaryObs := canaryOK + canaryErr
	if canaryObs < c.cfg.MinCanaryObservations {
		c.count("refresh_skip_total", "reason", "immature_window")
		return
	}
	canaryRate := float64(canaryOK) / float64(canaryObs)
	promote := false
	if activeObs := activeOK + activeErr; activeObs > 0 {
		promote = canaryRate >= float64(activeOK)/float64(activeObs)
	} else {
		promote = canaryRate >= c.cfg.DriftThreshold
	}
	if promote {
		if err := c.deploy.Promote(site, 0); err != nil {
			c.count("refresh_judge_total", "outcome", "promote_error")
			return
		}
		c.count("refresh_judge_total", "outcome", "promote")
		c.obs.Event("refresh.promote", "site", site)
		return
	}
	if err := c.deploy.Rollback(site, 0); err != nil {
		c.count("refresh_judge_total", "outcome", "rollback_error")
		return
	}
	c.count("refresh_judge_total", "outcome", "rollback")
	c.obs.Event("refresh.rollback", "site", site)
}

func (c *Controller) count(name, k, v string) {
	c.obs.Counter(obs.WithLabels(name, k, v)).Inc()
}
