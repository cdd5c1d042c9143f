package spanner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// Every Program draws its DAG arenas, each with its row memo, from its own
// pool. These tests pin the pool's hygiene: whatever a run leaves behind — a
// failed pass, a drained cursor, an abandoned one — later runs of any
// program must still agree with the naive oracle, and handed-out vectors
// must never alias an arena.

// records spells n "q p q r" records.
func records(n int) string {
	return strings.TrimSpace(strings.Repeat("q p q r ", n))
}

// doneAfter is a context whose Done channel closes on its n-th call, so a
// test can expire exactly the n-th deadline poll. Single-goroutine use only.
type doneAfter struct {
	context.Context
	n, calls int
	done     chan struct{}
}

func newDoneAfter(n int) *doneAfter {
	return &doneAfter{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.calls++; c.calls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *doneAfter) Err() error {
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// checkRun runs prog over word and compares every vector with the oracle.
func checkRun(t *testing.T, e senv, src string, prog *Program, ws string) {
	t.Helper()
	tp := e.tuple(t, src, machine.Options{})
	w := e.word(t, ws)
	m, err := prog.Run(w)
	if err != nil {
		t.Fatalf("%q on %q: Run: %v", src, ws, err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatalf("%q on %q: All: %v", src, ws, err)
	}
	if want := NaiveTuples(tp, w); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q on %q:\n spanner = %v\n oracle  = %v", src, ws, got, want)
	}
}

func compile(t *testing.T, e senv, src string, opt machine.Options) *Program {
	t.Helper()
	p, err := Compile(e.tuple(t, src, opt), opt)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return p
}

// TestRerunAfterFailedPass: a pass abandoned by the node budget or by a
// deadline mid-pass returns its arena half-built; reruns of the same program
// and of programs with more and fewer states must not see any of it.
func TestRerunAfterFailedPass(t *testing.T) {
	e := newSenv()
	const small, big = ".* <p> .* <r> .*", "(q p q r)* q <p> q <r> (q p q r)*"
	progs := map[string]*Program{small: compile(t, e, small, machine.Options{}), big: compile(t, e, big, machine.Options{})}
	if len(progs[big].final) <= len(progs[small].final) {
		t.Fatalf("fixture: %q has %d states, %q %d", big, len(progs[big].final), small, len(progs[small].final))
	}
	rerun := func(t *testing.T) {
		for _, src := range []string{small, big} {
			for _, ws := range []string{records(5), "q p q r p r", "p r", ""} {
				checkRun(t, e, src, progs[src], ws)
			}
		}
	}
	for _, src := range []string{small, big} {
		t.Run("budget/"+src, func(t *testing.T) {
			budgeted := compile(t, e, src, machine.Options{MaxStates: 64})
			if _, err := budgeted.Run(e.word(t, records(40))); !errors.Is(err, machine.ErrBudget) {
				t.Fatalf("Run over budget: err = %v, want ErrBudget", err)
			}
			checkRun(t, e, src, budgeted, "q p q r")
			rerun(t)
		})
		t.Run("deadline/"+src, func(t *testing.T) {
			ctx := newDoneAfter(2) // the poll at position pollStride expires
			_, err := progs[src].RunContext(ctx, e.word(t, records(600)))
			if !errors.Is(err, machine.ErrDeadline) || !strings.Contains(err.Error(), fmt.Sprintf("position %d:", pollStride)) {
				t.Fatalf("Run with a mid-pass deadline: err = %v, want ErrDeadline at position %d", err, pollStride)
			}
			rerun(t)
		})
	}
}

// TestDrainedVectorsSurviveReuse: vectors are freshly allocated, so a
// drained cursor's output and node count stay put while later runs reuse
// the arena it returned.
func TestDrainedVectorsSurviveReuse(t *testing.T) {
	e := newSenv()
	prog := compile(t, e, ".* <p> .* <r> .*", machine.Options{})
	m, err := prog.Run(e.word(t, "p r p r q p r"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.All()
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.Nodes()
	snapshot := make([][]int, len(got))
	for i, v := range got {
		snapshot[i] = append([]int(nil), v...)
	}
	for i := 0; i < 4; i++ {
		checkRun(t, e, ".* <p> .* <r> .*", prog, "r r p p r r q")
	}
	if !reflect.DeepEqual(got, snapshot) {
		t.Fatalf("drained vectors changed under reuse:\n now    = %v\n before = %v", got, snapshot)
	}
	if m.Nodes() != nodes {
		t.Fatalf("Nodes() = %d after reuse, was %d", m.Nodes(), nodes)
	}
	if v, ok, err := m.Next(); v != nil || ok || err != nil {
		t.Fatalf("Next on a drained cursor = %v, %v, %v", v, ok, err)
	}
}

// TestAbandonedCursorLeavesNoTrace: a cursor dropped mid-enumeration keeps
// its arena out of the pool, so later runs are unaffected — and the cursor
// itself, resumed afterwards, still yields exactly the rest.
func TestAbandonedCursorLeavesNoTrace(t *testing.T) {
	e := newSenv()
	const src = "(q p q r)* q <p> q <r> (q p q r)*"
	prog := compile(t, e, src, machine.Options{})
	w := e.word(t, records(6))
	want := NaiveTuples(e.tuple(t, src, machine.Options{}), w)
	m, err := prog.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	first, ok, err := m.Next()
	if err != nil || !ok || !reflect.DeepEqual(first, want[0]) {
		t.Fatalf("first Next = %v, %v, %v; want %v", first, ok, err, want[0])
	}
	for _, ws := range []string{records(3), "q p q", records(8)} {
		checkRun(t, e, src, prog, ws)
		checkRun(t, e, ".* <p> .*", compile(t, e, ".* <p> .*", machine.Options{}), ws)
	}
	rest, err := m.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, want[1:]) {
		t.Fatalf("resumed cursor = %v, want %v", rest, want[1:])
	}
}

// TestConcurrentRunsOfTwoPrograms: eight goroutines run two programs at
// once, each program handing out arenas and their memos from its own pool;
// every enumeration must match the oracle.
func TestConcurrentRunsOfTwoPrograms(t *testing.T) {
	e := newSenv()
	type oracleCase struct {
		src  string
		prog *Program
		word []symtab.Symbol
		want [][]int
	}
	var cases []oracleCase
	for _, src := range []string{".* <p> .* <r> .*", "(q p q r)* q <p> q <r> (q p q r)*"} {
		tp := e.tuple(t, src, machine.Options{})
		prog := compile(t, e, src, machine.Options{})
		for _, ws := range []string{records(7), "p r q p r", "q p q r p", ""} {
			w := e.word(t, ws)
			cases = append(cases, oracleCase{src: src, prog: prog, word: w, want: NaiveTuples(tp, w)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cases[(g+i)%len(cases)]
				m, err := c.prog.Run(c.word)
				if err != nil {
					t.Errorf("goroutine %d: %q: Run: %v", g, c.src, err)
					return
				}
				got, err := m.All()
				if err != nil {
					t.Errorf("goroutine %d: %q: All: %v", g, c.src, err)
					return
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("goroutine %d: %q on %v:\n spanner = %v\n oracle  = %v", g, c.src, c.word, got, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeadlinePollCadence: the forward pass polls the deadline at position
// 0 and then every pollStride positions — a finished run of n positions
// counts ⌈n/pollStride⌉ polls into machine_deadline_polls_total, and an
// expiring context is noticed at the next multiple of pollStride.
func TestDeadlinePollCadence(t *testing.T) {
	if pollStride != 1024 {
		t.Fatalf("pollStride = %d, want 1024", pollStride)
	}
	e := newSenv()
	prog := compile(t, e, ".* <p> .*", machine.Options{})
	word := make([]symtab.Symbol, 5000)
	for i := range word {
		word[i] = []symtab.Symbol{e.q, e.p, e.r}[i%3]
	}
	for _, n := range []int{0, 1, 1023, 1024, 1025, 4096, 5000} {
		o := obs.New()
		if _, err := prog.RunContext(obs.NewContext(context.Background(), o), word[:n]); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int64((n + pollStride - 1) / pollStride)
		if got := o.Metrics.Counter("machine_deadline_polls_total").Value(); got != want {
			t.Errorf("n=%d: %d polls counted, want %d", n, got, want)
		}
	}
	for _, expire := range []int{1, 2, 3, 5} {
		ctx := newDoneAfter(expire)
		_, err := prog.RunContext(ctx, word)
		pos := (expire - 1) * pollStride
		if !errors.Is(err, machine.ErrDeadline) || !strings.Contains(err.Error(), fmt.Sprintf("position %d:", pos)) {
			t.Errorf("Done closing on call %d: err = %v, want ErrDeadline at position %d", expire, err, pos)
		}
		if ctx.calls != expire {
			t.Errorf("Done closing on call %d: polled %d times", expire, ctx.calls)
		}
	}
}
