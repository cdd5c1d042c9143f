package refresh

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The judge edge-case scenarios: timelines of operator actions, traffic
// windows, and controller passes played against a registry-faithful fake
// under a virtual clock. The clock never sleeps — it only timestamps the
// action log, so each scenario's expectation reads as a deterministic
// transcript of who did what when.

// vclock is the scenarios' virtual time source: a monotonically advancing
// offset from the scenario start, used to stamp the deployment's action log.
type vclock struct {
	now time.Duration
}

func (c *vclock) advanceTo(at time.Duration) {
	if at > c.now {
		c.now = at
	}
}

func (c *vclock) stamp(action string) string {
	return fmt.Sprintf("%s %s", c.now, action)
}

// slotDeploy is a Deployment modeling the versioned registry's slot
// semantics exactly as serve.Server implements them (the promote and
// rollback cases of its apply): promote requires a staged canary and shifts
// active→prior; rollback prefers the canary slot and otherwise reverts
// active to prior. Versions are labels, not real wrappers — the judge path
// never extracts, so the state machine is all that matters.
type slotDeploy struct {
	clk                   *vclock
	active, prior, canary string // version labels; "" = empty slot
	stats                 [4]uint64

	// onStats, when set, runs inside CanaryStats — the hook that models an
	// operator action landing between the controller's window read and its
	// verdict call.
	onStats func(d *slotDeploy)

	log []string
}

func (d *slotDeploy) Sites() []string                  { return []string{"vs"} }
func (d *slotDeploy) ActivePayload(site string) []byte { return nil }
func (d *slotDeploy) Extract(site, html string) error  { return nil }
func (d *slotDeploy) HasCanary(site string) bool       { return d.canary != "" }

func (d *slotDeploy) DeployCanary(site string, payload []byte) (uint64, error) {
	d.canary = string(payload)
	return 2, nil
}

func (d *slotDeploy) CanaryStats(site string) (uint64, uint64, uint64, uint64) {
	if hook := d.onStats; hook != nil {
		d.onStats = nil
		hook(d)
	}
	return d.stats[0], d.stats[1], d.stats[2], d.stats[3]
}

func (d *slotDeploy) Promote(site string, version uint64) error {
	if d.canary == "" {
		return fmt.Errorf("no canary staged for %q", site)
	}
	d.prior, d.active, d.canary = d.active, d.canary, ""
	d.log = append(d.log, d.clk.stamp("promote→"+d.active))
	return nil
}

func (d *slotDeploy) Rollback(site string, version uint64) error {
	switch {
	case d.canary != "":
		d.canary = ""
		d.log = append(d.log, d.clk.stamp("rollback-canary"))
	case d.prior != "" && d.active != "":
		d.active, d.prior = d.prior, ""
		d.log = append(d.log, d.clk.stamp("rollback-prior→"+d.active))
	default:
		return fmt.Errorf("nothing to roll back for %q", site)
	}
	return nil
}

// judgeStep is one timeline event: advance the virtual clock to at, apply
// the window/hook mutations, and optionally run one controller pass.
type judgeStep struct {
	at     time.Duration
	stats  *[4]uint64          // overwrite the observation window
	manual func(d *slotDeploy) // operator action racing the next stats read
	tick   bool
}

func TestJudgeEdgeCases(t *testing.T) {
	window := func(canaryOK, canaryErr, activeOK, activeErr uint64) *[4]uint64 {
		return &[4]uint64{canaryOK, canaryErr, activeOK, activeErr}
	}
	cases := []struct {
		name       string
		steps      []judgeStep
		wantLog    []string
		wantActive string
		wantPrior  string
		wantCanary string
	}{
		{
			// Maturity is counted in canary-routed observations, not wall
			// time: a staged canary that never sees traffic is never judged,
			// no matter how many intervals pass. The rollout neither promotes
			// a wrapper nothing has exercised nor discards it while it still
			// might get traffic.
			name: "zero-traffic window never matures",
			steps: []judgeStep{
				{at: 30 * time.Second, tick: true},
				{at: 60 * time.Second, tick: true},
				{at: time.Hour, tick: true},
			},
			wantLog:    nil,
			wantActive: "v1",
			wantCanary: "v2",
		},
		{
			// An exact tie — identical non-perfect success rates on both
			// arms — promotes: the candidate was induced from fresher
			// samples, so at equal quality the newer wrapper wins (the >=
			// in judgeCanary is deliberate, not an off-by-one).
			name: "identical canary and active scores promote",
			steps: []judgeStep{
				{at: 5 * time.Minute, stats: window(15, 5, 15, 5), tick: true},
			},
			wantLog:    []string{"5m0s promote→v2"},
			wantActive: "v2",
			wantPrior:  "v1",
		},
		{
			// Both arms at zero success also tie, and the tie still goes to
			// the canary: rate 0 >= rate 0. A site that is broken either way
			// converges on the newer wrapper rather than oscillating.
			name: "all-failing tie still promotes",
			steps: []judgeStep{
				{at: 5 * time.Minute, stats: window(0, 20, 0, 20), tick: true},
			},
			wantLog:    []string{"5m0s promote→v2"},
			wantActive: "v2",
			wantPrior:  "v1",
		},
		{
			// An operator promotes manually between the controller's stats
			// read and its verdict. The losing stats still produce a
			// rollback, which now finds no canary staged and falls through
			// to the registry's prior-path: the manual promote is undone and
			// v1 is active again. The stale verdict winning the race is the
			// designed outcome — the window said v2 regresses, and a manual
			// promote does not outrank the measurement. Operators who want
			// to overrule the judge stop the controller first.
			name: "rollback after concurrent manual promote reverts it",
			steps: []judgeStep{
				{
					at:    5 * time.Minute,
					stats: window(2, 18, 20, 0),
					manual: func(d *slotDeploy) {
						if err := d.Promote("vs", 0); err != nil {
							t.Errorf("manual promote: %v", err)
						}
					},
					tick: true,
				},
			},
			wantLog:    []string{"5m0s promote→v2", "5m0s rollback-prior→v1"},
			wantActive: "v1",
		},
		{
			// The same race where the window favors the canary: the
			// controller's promote verdict arrives after the operator
			// already promoted. With no canary staged the second promote
			// errors inside the deployment and the controller contains it —
			// the registry keeps the operator's state, nothing double-shifts
			// into prior.
			name: "promote after concurrent manual promote is contained",
			steps: []judgeStep{
				{
					at:    5 * time.Minute,
					stats: window(20, 0, 0, 20),
					manual: func(d *slotDeploy) {
						if err := d.Promote("vs", 0); err != nil {
							t.Errorf("manual promote: %v", err)
						}
					},
					tick: true,
				},
			},
			wantLog:    []string{"5m0s promote→v2"},
			wantActive: "v2",
			wantPrior:  "v1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &vclock{}
			d := &slotDeploy{clk: clk, active: "v1", canary: "v2"}
			c, err := New(d, Config{
				Sampler: SamplerFunc(func(site string) ([]string, error) { return nil, nil }),
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, step := range tc.steps {
				clk.advanceTo(step.at)
				if step.stats != nil {
					d.stats = *step.stats
				}
				if step.manual != nil {
					d.onStats = step.manual
				}
				if step.tick {
					c.Tick(context.Background())
				}
			}
			if !reflect.DeepEqual(d.log, tc.wantLog) {
				t.Errorf("action log = %q, want %q", d.log, tc.wantLog)
			}
			if d.active != tc.wantActive || d.prior != tc.wantPrior || d.canary != tc.wantCanary {
				t.Errorf("final slots active=%q prior=%q canary=%q, want active=%q prior=%q canary=%q",
					d.active, d.prior, d.canary, tc.wantActive, tc.wantPrior, tc.wantCanary)
			}
		})
	}
}
