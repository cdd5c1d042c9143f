package main

import (
	"testing"
	"time"
)

// The probe must cost the same on every commit and disturb nothing: its
// kernel allocates nothing, so it never triggers a collection.
func TestProbeKernelAllocatesNothing(t *testing.T) {
	k := newKernel()
	if n := testing.AllocsPerRun(100, k.run); n != 0 {
		t.Errorf("probe kernel allocates %g times per call, want 0", n)
	}
}

func TestSpeedFactor(t *testing.T) {
	p := startProbe()
	defer p.close()
	p.interval()
	time.Sleep(20 * probeEvery)
	f, steal := p.interval()
	if f <= 0.05 || f >= 20 {
		t.Errorf("speed factor %g: the probe kernel should take about refProbe", f)
	}
	if steal < 0 || steal > 1 {
		t.Errorf("steal share %g, want one within [0, 1]", steal)
	}
}
