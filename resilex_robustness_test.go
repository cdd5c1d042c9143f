package resilex

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

const (
	robustPageA = `<h1>Shop</h1><form><input type="image"><input type="text" data-target></form>`
	robustPageB = `<div><h1>Shop</h1><p>deal!</p><form><input type="image"><input type="text" data-target></form></div>`
)

func robustWrapper(t *testing.T) *Wrapper {
	t.Helper()
	w, err := Train([]Sample{
		{HTML: robustPageA, Target: TargetMarker()},
		{HTML: robustPageB, Target: TargetMarker()},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestGuardConvertsPanics pins the facade backstop: any panic that escapes
// the internal packages surfaces as an error wrapping ErrInternal.
func TestGuardConvertsPanics(t *testing.T) {
	err := func() (err error) {
		defer guard(&err)
		panic("invariant violated")
	}()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "invariant violated") {
		t.Errorf("panic value lost: %v", err)
	}
}

// TestFacadeErrorTaxonomy walks each failure class through the public API
// and checks the canonical sentinel is detectable with errors.Is.
func TestFacadeErrorTaxonomy(t *testing.T) {
	// Malformed persisted input.
	if _, err := LoadWrapper([]byte(`{`), Options{}); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadWrapper: %v", err)
	}
	// A tuple wrapper's JSON is not a single-pivot wrapper, even when its
	// expression happens to parse as one.
	tuple := []byte(`{"version":1,"kind":"tuple","expr":"q* <p> q*","sigma":["p","q"]}`)
	if _, err := LoadWrapper(tuple, Options{}); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadWrapper(tuple payload): %v", err)
	}
	if _, err := LoadFleet([]byte(`[]`), Options{}); !errors.Is(err, ErrMalformedInput) {
		t.Errorf("LoadFleet: %v", err)
	}

	w := robustWrapper(t)

	// No-match (drift signal): both sentinel names detect it.
	_, err := w.Extract(`<i>junk</i>`)
	if !errors.Is(err, ErrNoMatch) || !errors.Is(err, ErrNotExtracted) {
		t.Errorf("no-match: %v", err)
	}

	// Deadline: an expired context fails fast through the facade helper.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ExtractWithin(ctx, w, robustPageA); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired extract: %v", err)
	}
	if _, err := RefreshWithin(ctx, w, Sample{HTML: robustPageA, Target: TargetMarker()}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired refresh: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("expired-context calls took %v, want < 100ms", elapsed)
	}

	// Budget: training under a starvation budget surfaces ErrBudgetExceeded.
	_, err = Train([]Sample{
		{HTML: robustPageA, Target: TargetMarker()},
		{HTML: robustPageB, Target: TargetMarker()},
	}, Config{Options: Options{MaxStates: 2}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("starved train: %v", err)
	}

	// Fleet dispatch failures.
	f := NewFleet()
	f.Add("shop", w)
	if _, err := f.ExtractFrom("ghost", robustPageA); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown key: %v", err)
	}
}
