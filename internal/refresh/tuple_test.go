package refresh

import (
	"context"
	"testing"

	"resilex/internal/obs"
	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// TestTickSkipsTupleSite: on a real server, a drifted tuple site is
// reported but not re-induced. Induction would stage a single-pivot canary
// under the tuple key, and promoting it would break the key's tuples route.
func TestTickSkipsTupleSite(t *testing.T) {
	tw, err := wrapper.TrainTuple([]wrapper.Sample{
		{HTML: `<h1>Parts List</h1>
<table>
<tr><td data-target>bolt M4</td><td data-target>$0.10</td></tr>
</table>`},
		{HTML: `<p>updated daily</p>
<table>
<tr><th>name</th><th>price</th></tr>
<tr><td data-target>bolt M4</td><td data-target>$0.12</td></tr>
</table>`},
	}, wrapper.Config{KeepText: true})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := tw.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	s, err := serve.New(serve.Config{CacheCap: 8, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutWrapper(context.Background(), "parts", payload); err != nil {
		t.Fatal(err)
	}
	// The redesigned pages list the parts outside the wrapper's alphabet and
	// mark both cells, so they read as drift and are marked for induction.
	drifted := make([]string, 4)
	for i := range drifted {
		drifted[i] = `<div class="parts"><ul><li data-target>bolt M4</li><li data-target>$0.10</li></ul></div>`
	}
	c, err := New(s, Config{
		Sampler:  SamplerFunc(func(string) ([]string, error) { return drifted, nil }),
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}

	c.Tick(context.Background())

	if s.HasCanary("parts") {
		t.Fatal("tick staged a canary for a tuple site")
	}
	if _, ok := s.Active("parts").(*wrapper.TupleWrapper); !ok {
		t.Fatalf("parts serves %T, want *wrapper.TupleWrapper", s.Active("parts"))
	}
	if got := o.Counter(obs.WithLabels("refresh_skip_total", "reason", "tuple")).Value(); got != 1 {
		t.Fatalf(`refresh_skip_total{reason="tuple"} = %d, want 1`, got)
	}
	if got := o.Counter(obs.WithLabels("refresh_drift_detected_total", "site", "parts")).Value(); got != 1 {
		t.Fatalf("refresh_drift_detected_total = %d, want 1", got)
	}
	if got := o.Gauge(obs.WithLabels("refresh_drift_rate_pct", "site", "parts")).Value(); got != 100 {
		t.Fatalf("refresh_drift_rate_pct = %d, want 100", got)
	}
}
