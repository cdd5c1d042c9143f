package spanner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

type senv struct {
	tab     *symtab.Table
	p, q, r symtab.Symbol
	sigma   symtab.Alphabet
}

func newSenv() senv {
	tab := symtab.NewTable()
	p, q, r := tab.Intern("p"), tab.Intern("q"), tab.Intern("r")
	return senv{tab, p, q, r, symtab.NewAlphabet(p, q, r)}
}

func (e senv) tuple(t *testing.T, src string, opt machine.Options) *extract.Tuple {
	t.Helper()
	tp, err := extract.ParseTuple(src, e.tab, e.sigma, opt)
	if err != nil {
		t.Fatalf("ParseTuple(%q): %v", src, err)
	}
	return tp
}

func (e senv) word(t *testing.T, src string) []symtab.Symbol {
	t.Helper()
	w, err := rx.ParseWord(src, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestProgramMatchesOracle is the fixture differential: the one-pass
// multi-split DAG must enumerate exactly the vectors the naive k-nested
// oracle finds, in the same lexicographic order.
func TestProgramMatchesOracle(t *testing.T) {
	e := newSenv()
	cases := []struct {
		expr  string
		words []string
	}{
		{".* <p> .*", []string{"p", "q p q", "p p p", "q q", ""}},
		{"q* <p> q* <r> .*", []string{"q p q r", "p r", "q q", "p q r p r", ""}},
		{".* <p> .* <r> .*", []string{"q p q r p r q", "p r", "r p", "p p r r"}},
		{".* <p> .* <p> .*", []string{"p p p p", "q p q p q", "p"}},
		{".* <p> .* <r> .* <p> .*", []string{"p r p", "p q r q p r p", "p r"}},
		{"q <p> q", []string{"q p q", "q p", "p q", "q p q q"}},
	}
	for _, tc := range cases {
		tp := e.tuple(t, tc.expr, machine.Options{})
		prog, err := Compile(tp, machine.Options{})
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.expr, err)
		}
		if prog.Arity() != tp.Arity() {
			t.Fatalf("%q: arity = %d, want %d", tc.expr, prog.Arity(), tp.Arity())
		}
		for _, ws := range tc.words {
			w := e.word(t, ws)
			m, err := prog.Run(w)
			if err != nil {
				t.Fatalf("%q on %q: Run: %v", tc.expr, ws, err)
			}
			got, err := m.All()
			if err != nil {
				t.Fatalf("%q on %q: All: %v", tc.expr, ws, err)
			}
			want := NaiveTuples(tp, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q on %q:\n spanner = %v\n oracle  = %v", tc.expr, ws, got, want)
			}
		}
	}
}

// TestUnambiguousTupleInvariant checks the per-pivot lift of the paper's
// unambiguity theory: on an unambiguous tuple the spanner finds at most one
// vector per word, and exactly the one extract.Tuple.Extract returns.
func TestUnambiguousTupleInvariant(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, "q* <p> q* <r> q*", machine.Options{})
	unamb, err := tp.Unambiguous()
	if err != nil || !unamb {
		t.Fatalf("Unambiguous() = %v, %v; fixture must be unambiguous", unamb, err)
	}
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range []string{"q p q r q", "p r", "q q p r", "q p q", "r p", ""} {
		w := e.word(t, ws)
		m, err := prog.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 1 {
			t.Fatalf("unambiguous tuple yielded %d vectors on %q: %v", len(got), ws, got)
		}
		vec, ok, err := tp.Extract(w)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(got) == 1) {
			t.Fatalf("on %q: Extract ok=%v but spanner found %d vectors", ws, ok, len(got))
		}
		if ok && !reflect.DeepEqual(got[0], vec) {
			t.Fatalf("on %q: spanner = %v, Extract = %v", ws, got[0], vec)
		}
	}
}

// TestRecordEnumeration drives the record workload the subsystem exists
// for: many (p, r) rows in one page, enumerated in order.
func TestRecordEnumeration(t *testing.T) {
	e := newSenv()
	// Each record is "q p q r"; the tuple anchors one (p, r) pair per record
	// and is satisfied once per record occurrence.
	tp := e.tuple(t, "(q p q r)* q <p> q <r> (q p q r)*", machine.Options{})
	var src string
	for i := 0; i < 5; i++ {
		if i > 0 {
			src += " "
		}
		src += "q p q r"
	}
	w := e.word(t, src)
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d records, want 5: %v", len(got), got)
	}
	for i, vec := range got {
		if want := []int{4*i + 1, 4*i + 3}; !reflect.DeepEqual(vec, want) {
			t.Errorf("record %d = %v, want %v", i, vec, want)
		}
	}
	if !reflect.DeepEqual(got, NaiveTuples(tp, w)) {
		t.Error("spanner disagrees with oracle on the record workload")
	}
	if m2, _ := prog.Run(w); m2 != nil {
		if n := m2.Nodes(); n <= 0 {
			t.Errorf("Nodes() = %d, want > 0", n)
		}
	}
}

// TestNextAfterExhaustion: the cursor stays drained.
func TestNextAfterExhaustion(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, "q* <p> .*", machine.Options{})
	prog, err := Compile(tp, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.Run(e.word(t, "q p"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m.Next(); !ok || v[0] != 1 {
		t.Fatalf("first Next = %v, %v", v, ok)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := m.Next(); ok || err != nil {
			t.Fatalf("Next after exhaustion: ok=%v err=%v", ok, err)
		}
	}
}

// TestRunBudget: the DAG node count is charged against MaxStates.
func TestRunBudget(t *testing.T) {
	e := newSenv()
	tp := e.tuple(t, ".* <p> .*", machine.Options{MaxStates: 4})
	prog, err := Compile(tp, machine.Options{MaxStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Run(e.word(t, "q q q q p q q q q"))
	if !errors.Is(err, machine.ErrBudget) {
		t.Fatalf("Run under a 4-node budget: err = %v, want ErrBudget", err)
	}
}

// TestRunDeadline: a cancelled Options context aborts both the pass and a
// live cursor with ErrDeadline.
func TestRunDeadline(t *testing.T) {
	e := newSenv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := machine.Options{}.WithContext(ctx)
	tp := e.tuple(t, ".* <p> .*", machine.Options{})
	prog, err := Compile(tp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(e.word(t, "q p q")); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("Run under a cancelled context: err = %v, want ErrDeadline", err)
	}

	// Cancel between Run and Next: enumeration must notice too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	prog2, err := Compile(tp, machine.Options{}.WithContext(ctx2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog2.Run(e.word(t, "q p q"))
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	if _, _, err := m.Next(); !errors.Is(err, machine.ErrDeadline) {
		t.Fatalf("Next under a cancelled context: err = %v, want ErrDeadline", err)
	}
}

// TestRunMemoryBoundedByNodes: the pass allocates for the nodes it
// reaches, not for every (position, state) cell. A megasymbol word of
// out-of-Σ symbols reaches one node under the 13-state record expression;
// a dense (n+1)·states table would take about 100 MB.
func TestRunMemoryBoundedByNodes(t *testing.T) {
	e := newSenv()
	const src = "(q p q r)* q <p> q <r> (q p q r)*"
	prog, err := Compile(e.tuple(t, src, machine.Options{}), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prog.final); got != 13 {
		t.Fatalf("fixture: %q has %d local states, want 13", src, got)
	}
	word := make([]symtab.Symbol, 1<<20)
	for i := range word {
		word[i] = symtab.None
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := prog.Run(word)
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := m.All()
	runtime.ReadMemStats(&after)
	if err != nil || len(vecs) != 0 {
		t.Fatalf("All = %v, %v; want no vectors", vecs, err)
	}
	if n := m.Nodes(); n != 1 {
		t.Fatalf("Nodes() = %d, want 1", n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("Run allocated %d bytes for one node, want < 8 MB", d)
	}
}

func TestCompileNil(t *testing.T) {
	if _, err := Compile(nil, machine.Options{}); err == nil {
		t.Fatal("Compile(nil) succeeded")
	}
}
