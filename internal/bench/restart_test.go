package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"resilex/internal/serve"
	"resilex/internal/wrapper"
)

// churnRegistry populates a cache dir with the registry the serving
// benchmark's registry-churn workload restarts over: 16 Figure 1 keys and
// 32 churn keys, of which every third holds an E17 witness (n = 8, 10, 12
// in turn) and the rest a Figure 1 wrapper; each payload has one extra Σ
// name, so every key compiles an artifact of its own. Each key is written
// 1+extra times with its payload. The memory tier holds 16 artifacts, as
// with cmd/serve -cache 16. It returns the server that wrote the registry,
// the config that reopens it, and the churn keys with the payload each
// holds, in write order.
func churnRegistry(b *testing.B, extra int) (*serve.Server, serve.Config, []string, [][]byte) {
	w, err := wrapper.Train([]wrapper.Sample{
		{HTML: fig1Top, Target: wrapper.TargetMarker()},
		{HTML: fig1Bottom, Target: wrapper.TargetMarker()},
	}, wrapper.Config{Skip: []string{"BR"}})
	if err != nil {
		b.Fatal(err)
	}
	data, err := w.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	var fig1 map[string]any
	if err := json.Unmarshal(data, &fig1); err != nil {
		b.Fatal(err)
	}
	payload := func(p map[string]any, extra string) []byte {
		q := map[string]any{}
		for k, v := range p {
			q[k] = v
		}
		q["sigma"] = append(append([]any(nil), p["sigma"].([]any)...), extra)
		out, err := json.Marshal(q)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	witnesses := map[int]map[string]any{}
	for i, n := range []int{8, 10, 12} {
		c := e17Cases()[1+i] // the witness rows follow the Figure 1 row
		witnesses[n] = map[string]any{"version": 1, "expr": c.src, "sigma": []any{"p", "q"}, "strategy": "witness"}
	}

	cfg := serve.Config{CacheDir: b.TempDir(), CacheCap: 16, DiskCap: -1, RestoreLog: io.Discard}
	s, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	put := func(key string, p []byte) {
		for range 1 + extra {
			if _, err := s.PutWrapper(context.Background(), key, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("site-%d", i), payload(fig1, fmt.Sprintf("SITE%d", i)))
	}
	var keys []string
	var payloads [][]byte
	for r := 64; r < 96; r++ { // registry-churn's last write to each churn key
		p := fig1
		if r%3 == 2 {
			p = witnesses[[]int{8, 10, 12}[(r/3)%3]]
		}
		keys, payloads = append(keys, fmt.Sprintf("churn-%d", r%32)), append(payloads, payload(p, fmt.Sprintf("EXT%d", r)))
		put(keys[len(keys)-1], payloads[len(payloads)-1])
	}
	return s, cfg, keys, payloads
}

// BenchmarkWarmRestart times serve.New over a populated cache dir: the
// registry restore a restarted server runs before it listens, every
// artifact a disk hit, over churnRegistry's registry. With records=8 each
// key was written eight times, so restore reads envelope files at the
// registry's record bound.
func BenchmarkWarmRestart(b *testing.B) {
	for _, records := range []int{1, 8} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			_, cfg, _, _ := churnRegistry(b, records-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := serve.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = len(s.Sites())
			}
			if benchSink != 48 {
				b.Fatalf("restart serves %d keys, want 48", benchSink)
			}
		})
	}
}

// BenchmarkRegistryPut times Server.PutWrapper over churnRegistry's
// registry: each PUT writes the next of the 32 churn keys with one of the
// 16 payloads registered last, whose artifacts the memory tier holds, so a
// PUT costs a memory hit, the key table's update and the registry write.
func BenchmarkRegistryPut(b *testing.B) {
	s, _, keys, payloads := churnRegistry(b, 0)
	hot := payloads[len(payloads)-16:]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PutWrapper(ctx, keys[i%len(keys)], hot[i%len(hot)]); err != nil {
			b.Fatal(err)
		}
	}
}
