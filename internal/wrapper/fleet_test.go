package wrapper

import (
	"errors"
	"strings"
	"testing"

	"resilex/internal/machine"
)

func fleetFixture(t *testing.T) (*Fleet, map[string]string) {
	t.Helper()
	sites := map[string][2]string{
		// key -> {training page, live page}
		"acme": {
			`<h1>ACME</h1><form><input type="hidden"><input type="text" data-target></form>`,
			`<h1>ACME</h1><p>sale!</p><form><input type="hidden"><input type="text"></form>`,
		},
		"bolt": {
			`<table><tr><th>Bolt</th></tr><tr><td><form><input type="image"><input type="text" data-target></form></td></tr></table>`,
			`<table><tr><th>Bolt</th></tr><tr><td>new</td></tr><tr><td><form><input type="image"><input type="text"></form></td></tr></table>`,
		},
	}
	f := NewFleet()
	live := map[string]string{}
	for key, pages := range sites {
		w, err := Train([]Sample{{HTML: pages[0], Target: TargetMarker()}},
			Config{ExtraTags: []string{"P", "/P", "TD", "/TD", "TR", "/TR"}})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		f.Add(key, w)
		live[key] = pages[1]
	}
	return f, live
}

func TestFleetExtractFrom(t *testing.T) {
	f, live := fleetFixture(t)
	if f.Len() != 2 {
		t.Fatalf("len = %d", f.Len())
	}
	if got := f.Keys(); len(got) != 2 || got[0] != "acme" || got[1] != "bolt" {
		t.Fatalf("keys = %v", got)
	}
	for key, page := range live {
		r, err := f.ExtractFrom(key, page)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !strings.Contains(r.Source, `type="text"`) {
			t.Errorf("%s extracted %q", key, r.Source)
		}
	}
	if _, err := f.ExtractFrom("nope", "<p>"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestFleetPersistence(t *testing.T) {
	f, live := fleetFixture(t)
	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := LoadFleet(data, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Len() != f.Len() {
		t.Fatalf("len after reload = %d", f2.Len())
	}
	for key, page := range live {
		r1, err1 := f.ExtractFrom(key, page)
		r2, err2 := f2.ExtractFrom(key, page)
		if err1 != nil || err2 != nil || r1.Span != r2.Span {
			t.Errorf("%s differs after reload: %v/%v %v/%v", key, r1, err1, r2, err2)
		}
	}
	// Corrupt payloads.
	if _, err := LoadFleet([]byte(`{`), machine.Options{}); err == nil {
		t.Error("corrupt fleet accepted")
	}
	if _, err := LoadFleet([]byte(`{"version":1,"kind":"tuple"}`), machine.Options{}); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestFleetRemove(t *testing.T) {
	f, _ := fleetFixture(t)
	f.Remove("acme")
	if f.Len() != 1 || f.Get("acme") != nil {
		t.Error("remove failed")
	}
}

// TestTupleFleet: a Fleet holds tuple wrappers next to single-pivot ones,
// one wrapper of either kind per key; Get and GetTuple each see only their
// own kind, and ExtractFrom only single-pivot entries.
func TestTupleFleet(t *testing.T) {
	f := NewFleet()
	w, err := LoadTuple(recordsPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.AddTuple("parts", w)
	f.AddTuple("other", w)
	if f.Len() != 2 {
		t.Fatalf("len = %d", f.Len())
	}
	if f.GetTuple("parts") != w {
		t.Error("GetTuple missed a registered wrapper")
	}
	if f.GetTuple("absent") != nil {
		t.Error("GetTuple invented a wrapper")
	}
	if f.Get("parts") != nil {
		t.Error("Get returned a tuple key as single-pivot")
	}
	if _, err := f.ExtractFrom("parts", recordsPage); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("ExtractFrom on a tuple key: err = %v, want ErrUnknownKey", err)
	}
	keys := f.Keys()
	if len(keys) != 2 || keys[0] != "other" || keys[1] != "parts" {
		t.Errorf("keys = %v", keys)
	}
	f.Remove("other")
	if f.Len() != 1 || f.GetTuple("other") != nil {
		t.Error("Remove left the wrapper behind")
	}
	// Add replaces the key's tuple wrapper with a single-pivot one, and
	// AddTuple the converse.
	single, err := Load(trainedPayload(t), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Add("parts", single)
	if f.Len() != 1 || f.Get("parts") != single || f.GetTuple("parts") != nil {
		t.Error("Add did not replace the tuple wrapper")
	}
	f.AddTuple("parts", w)
	if f.Len() != 1 || f.GetTuple("parts") != w || f.Get("parts") != nil {
		t.Error("AddTuple did not replace the single-pivot wrapper")
	}
}
