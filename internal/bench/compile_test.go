package bench

import (
	"encoding/json"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/wrapper"
)

// BenchmarkCompileArtifact times what a cold registration pays per artifact
// before it builds a wrapper, one layer at a time: the content key (parse,
// canonical fingerprints, hash), the compile (parse, subset construction,
// minimization, matcher), and both together. The cases are a Figure 1
// wrapper trained the way the serving benchmark's batch-small sites are,
// and E17's expressions, whose witnesses grow the subset construction to
// 2^n states.
func BenchmarkCompileArtifact(b *testing.B) {
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}, ExtraTags: []string{"DIV", "/DIV", "HR", "IMG", "SPAN", "/SPAN"}})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	var p struct {
		Expr  string   `json:"expr"`
		Sigma []string `json:"sigma"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		b.Fatal(err)
	}
	cases := append([]e17Case{{name: "fig1 trained", src: p.Expr, names: p.Sigma}}, e17Cases()...)
	key := func(b *testing.B, c e17Case) {
		if _, err := extract.Key(c.src, c.names); err != nil {
			b.Fatal(err)
		}
	}
	compile := func(b *testing.B, c e17Case) {
		comp, err := extract.CompileArtifact(c.src, c.names, machine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = int(comp.Matcher.P())
	}
	for _, layer := range []struct {
		name string
		run  func(*testing.B, e17Case)
	}{
		{"key", key},
		{"compile", compile},
		{"key+compile", func(b *testing.B, c e17Case) { key(b, c); compile(b, c) }},
	} {
		for _, c := range cases {
			b.Run(layer.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layer.run(b, c)
				}
			})
		}
	}
}
