package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// digest hashes everything a workload sends and expects: registrations,
// pages, every read with its answer, and both schedules (reads by their pool
// index, writes by key and payload).
func digest(w *workload) string {
	h := sha256.New()
	for _, rs := range [][]registration{w.preload, w.regs} {
		for _, r := range rs {
			fmt.Fprintf(h, "reg %s %x\n", r.key, sha256.Sum256(r.payload))
		}
	}
	for _, d := range w.pages {
		fmt.Fprintf(h, "page %s %x\n", d.key, sha256.Sum256([]byte(d.html)))
	}
	for _, o := range append(append([]*op(nil), w.warmups...), w.reads...) {
		fmt.Fprintf(h, "%s %s %s %d %x %v\n", o.method, o.path, o.ctype, o.pool, sha256.Sum256(o.body), o.want)
	}
	ref := func(o *op) string {
		if o.write() {
			return fmt.Sprintf("w %s %x", o.key, sha256.Sum256(o.body))
		}
		return fmt.Sprintf("r %d", o.pool)
	}
	for _, a := range w.open {
		fmt.Fprintf(h, "at %d %s\n", a.at, ref(a.op))
	}
	for _, o := range w.closed {
		fmt.Fprintln(h, ref(o))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "tuples-records" {
				t.Skip("the k-nested oracle takes seconds per generation")
			}
			gen := func(seed int64) string {
				w, err := generate(name, seed, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if len(w.open) != int(w.rate*2+0.5) {
					t.Fatalf("open loop has %d arrivals, want rate × length = %g", len(w.open), w.rate*2)
				}
				per := make([]int, cycles)
				for _, a := range w.open {
					per[a.at*cycles/(2*time.Second)]++
				}
				for k, n := range per {
					if n < len(w.open)/cycles || n > len(w.open)/cycles+1 {
						t.Fatalf("window %d holds %d of %d arrivals; windows must hold equal shares", k, n, len(w.open))
					}
				}
				return digest(w)
			}
			a, b, c := gen(1), gen(1), gen(2)
			if a != b {
				t.Error("seed 1 generated different inputs twice")
			}
			if a == c {
				t.Error("seeds 1 and 2 generated identical inputs")
			}
		})
	}
}

// TestWorkloadShapes pins the pool sizes and mixes the README describes.
func TestWorkloadShapes(t *testing.T) {
	for _, tc := range []struct {
		name          string
		regs, pages   int
		reads         int
		minHit, maxHi float64 // share of pages the oracle extracts from
	}{
		{"batch-small", 32, 2048, 512, 0.3, 0.95},
		{"stream-large", 4, 48, 48, 1, 1},
		{"registry-churn", 0, 512, 512, 0.3, 0.95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := generate(tc.name, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.regs) != tc.regs || len(w.pages) != tc.pages || len(w.reads) != tc.reads {
				t.Fatalf("%d registrations, %d pages, %d reads; want %d, %d, %d",
					len(w.regs), len(w.pages), len(w.reads), tc.regs, tc.pages, tc.reads)
			}
			hits, docs := 0, 0
			for _, o := range w.reads {
				switch want := o.want.(type) {
				case []answerJSON:
					for _, a := range want {
						docs++
						if a.OK {
							hits++
						}
					}
				case answerJSON:
					docs++
					if want.OK {
						hits++
					}
				}
			}
			if f := float64(hits) / float64(docs); f < tc.minHit || f > tc.maxHi {
				t.Errorf("oracle extracts from %.2f of documents, want within [%g, %g]", f, tc.minHit, tc.maxHi)
			}
		})
	}
	w, err := generate("registry-churn", 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.preload) != 16+96 || len(w.churnArtifacts) != 96 {
		t.Fatalf("registry-churn preloads %d payloads over %d artifacts, want 112 over 96", len(w.preload), len(w.churnArtifacts))
	}
	writes := 0
	for _, a := range w.open {
		if a.op.write() {
			writes++
		}
	}
	if f := float64(writes) / float64(len(w.open)); f < 0.08 || f > 0.12 {
		t.Errorf("registry-churn writes %.3f of its operations, want about 0.1", f)
	}
}
