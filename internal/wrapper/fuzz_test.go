package wrapper

import (
	"context"
	"errors"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/obs"
)

// fuzzOptions caps construction work so the fuzzer spends its time on the
// decode/reparse surface, not on giant automata. The context carries a live
// observer so the whole fuzz surface runs with observation enabled — the
// instrumentation itself is under fuzz.
var fuzzOptions = machine.Options{
	MaxStates: 512,
	Ctx:       obs.NewContext(context.Background(), obs.New()),
}

// FuzzLoadWrapper drives the persisted-wrapper load path with arbitrary
// bytes: it must never panic, and every failure must wrap a typed sentinel.
func FuzzLoadWrapper(f *testing.F) {
	w, err := Train([]Sample{
		{HTML: `<h1>S</h1><form><input type="image"><input type="text" data-target></form>`, Target: TargetMarker()},
	}, Config{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := w.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{`))
	f.Add([]byte(`{"version":2,"expr":"","sigma":[]}`))
	f.Add([]byte(`{"version":1,"expr":"<INPUT>","sigma":["INPUT"]}`))
	f.Add([]byte(`{"version":1,"expr":"[^ A]* <A","sigma":["A"]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Load(data, fuzzOptions)
		if err != nil {
			if !errors.Is(err, ErrMalformedInput) && !errors.Is(err, machine.ErrBudget) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// A wrapper that loads must extract (or cleanly refuse) a page.
		if _, err := w.Extract(`<form><input type="text"></form>`); err != nil &&
			!errors.Is(err, ErrNotExtracted) {
			t.Fatalf("untyped extract error: %v", err)
		}
	})
}

// FuzzLoadFleet drives the persisted-fleet load path with arbitrary bytes:
// never a panic, only typed errors.
func FuzzLoadFleet(f *testing.F) {
	w, err := Train([]Sample{
		{HTML: `<h1>S</h1><form><input type="image"><input type="text" data-target></form>`, Target: TargetMarker()},
	}, Config{})
	if err != nil {
		f.Fatal(err)
	}
	fl := NewFleet()
	fl.Add("shop", w)
	valid, err := fl.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{`))
	f.Add([]byte(`{"version":1,"kind":"fleet","wrappers":{}}`))
	f.Add([]byte(`{"version":1,"kind":"fleet","wrappers":{"x":{}}}`))
	f.Add([]byte(`{"version":1,"kind":"tuple","wrappers":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := LoadFleet(data, fuzzOptions)
		if err != nil {
			if !errors.Is(err, ErrMalformedInput) && !errors.Is(err, machine.ErrBudget) {
				t.Fatalf("untyped fleet load error: %v", err)
			}
			return
		}
		for _, key := range fl.Keys() {
			fl.ExtractFrom(key, `<form><input type="text"></form>`)
		}
	})
}
