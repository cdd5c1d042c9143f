package extract

import (
	"fmt"
	"sync"

	"resilex/internal/machine"
	"resilex/internal/obs"
	"resilex/internal/symtab"
)

// StreamMatcher is the one-pass, constant-memory counterpart of Matcher.
// Where the two-scan matcher needs the whole token slice (a forward run of
// E1's DFA plus a backward predecessor sweep of E2's DFA), the streaming
// matcher resolves split points online in a single forward pass: it runs
// E1's DFA alongside a lazily-determinized simulation of E2 — one suffix
// "thread" per candidate split position, with threads that reach the same
// E2 state merged into the leftmost candidate, so at most |Q₂| threads are
// ever live. A wrapper's expression is unambiguous (Definition 4.2), so
// serving needs only that one split; Expr.Splits and Matcher.All give the
// full set. THEORY.md ("One-pass streaming extraction") proves Find equal to
// the two-scan Matcher.Find on every word; the differential fuzz target
// FuzzStreamTwoPassEquiv enforces it on every build.
//
// Both component automata are flattened to dense []uint32 transition tables
// (machine.Dense), so the per-token work is two table loads and a bounded
// merge sweep — no map walks, no binary symbol search, no allocation. A
// StreamMatcher is immutable and safe for concurrent use; per-extraction
// state lives in pooled StreamRun values.
type StreamMatcher struct {
	p   symtab.Symbol
	fwd *machine.Dense // E1's minimal DFA
	sfx *machine.Dense // E2's minimal DFA, simulated per-candidate
	idx *machine.SymbolIndex

	// doomed marks E2 states from which acceptance is unreachable; threads
	// stepping into them are discarded immediately, which is what keeps the
	// live-candidate set (and the caller's capture buffers) small.
	doomed      []bool
	startDoomed bool // L(E2) = ∅: every candidate is stillborn

	pool sync.Pool // *StreamRun
}

// StreamMode names the candidate bookkeeping a run keeps. FindLeftmost is
// the only mode.
type StreamMode int

// FindLeftmost tracks only the leftmost candidate position per live suffix
// thread: O(|Q₂|) state and no allocation on a warm run. It suffices for
// unambiguous expressions, where at most one position survives anyway.
const FindLeftmost StreamMode = 0

// CompileStream builds the streaming matcher for any expression. Like the
// two-scan matcher's core it only flattens component DFAs that already
// exist, so it does not poll the expression's deadline: an expression loaded
// under a request context that has since ended still compiles. It fails only
// when Σ holds a symbol id beyond the dense symbol-index bound.
func (e Expr) CompileStream() (_ *StreamMatcher, err error) {
	_, ph := obs.StartPhase(e.opt.Ctx, "extract.stream_compile")
	defer func() {
		ph.Count("extract_stream_compiles_total", 1)
		endPhaseErr(ph, err)
	}()
	fwd, err := e.left.DFA().Compact()
	if err != nil {
		return nil, fmt.Errorf("extract: stream matcher: prefix automaton: %w", err)
	}
	sfx, err := e.right.DFA().Compact()
	if err != nil {
		return nil, fmt.Errorf("extract: stream matcher: suffix automaton: %w", err)
	}
	idx, err := machine.NewSymbolIndex(e.sigma)
	if err != nil {
		return nil, fmt.Errorf("extract: stream matcher: %w", err)
	}
	doomed := sfx.Doomed()
	ph.Attr("fwd_states", int64(fwd.NumStates()))
	ph.Attr("sfx_states", int64(sfx.NumStates()))
	return &StreamMatcher{
		p:           e.p,
		fwd:         fwd,
		sfx:         sfx,
		idx:         idx,
		doomed:      doomed,
		startDoomed: doomed[sfx.Start],
	}, nil
}

// endPhaseErr closes a phase, recording the error on its span if any.
func endPhaseErr(ph *obs.Phase, err error) {
	if err != nil {
		ph.Fail(err)
	}
	ph.End()
}

// Get borrows a run from the matcher's pool (or creates one) and resets it
// for a new document. mode must be FindLeftmost, the only mode. Return the
// run with Put when done; a run holds reusable buffers, so the warm
// Get→Feed…→Put cycle is allocation-free.
func (m *StreamMatcher) Get(mode StreamMode) *StreamRun {
	r, _ := m.pool.Get().(*StreamRun)
	if r == nil {
		r = &StreamRun{sm: m}
		r.cur, r.nxt = &r.sets[0], &r.sets[1]
	}
	r.reset()
	return r
}

// Put returns a run to the pool. The run (and any positions or borrowed
// buffers derived from it) must not be used afterwards.
func (m *StreamMatcher) Put(r *StreamRun) {
	if r == nil || r.sm != m {
		return
	}
	m.pool.Put(r)
}

// Find returns the leftmost valid extraction position in a materialized
// word, or ok=false.
func (m *StreamMatcher) Find(word []symtab.Symbol) (pos int, ok bool) {
	r := m.Get(FindLeftmost)
	defer m.Put(r)
	for _, sym := range word {
		r.Feed(sym)
	}
	return r.Find()
}

// threadSet is one generation of live suffix threads: the states that carry
// a candidate, and per state the leftmost candidate position. head[q] < 0
// means no thread in q.
type threadSet struct {
	live []uint32
	head []int32
}

func (s *threadSet) size(states int) {
	if cap(s.head) < states {
		s.head = make([]int32, states)
		for i := range s.head {
			s.head[i] = -1
		}
	}
	s.head = s.head[:states]
	s.live = s.live[:0]
}

// clear empties the set via its live list (touched entries only).
func (s *threadSet) clear() {
	for _, q := range s.live {
		s.head[q] = -1
	}
	s.live = s.live[:0]
}

// StreamRun is the per-document state of a streaming extraction: the E1
// state and the live suffix-thread set (double-buffered). Runs are pooled by
// their StreamMatcher; all buffers are reused across documents, so a warm
// run never allocates. A StreamRun is single-goroutine state.
type StreamRun struct {
	sm  *StreamMatcher
	f   uint32 // E1 state; machine.NoState once an out-of-Σ token is seen
	pos int32  // tokens consumed

	// cur is the live thread set. Feed builds the next generation in nxt
	// and swaps the two pointers, which point into sets: swapping the
	// threadSet values instead took 42–65% of Feed's time in CPU profiles
	// (2-vCPU Xeon, Go 1.24).
	cur, nxt *threadSet
	sets     [2]threadSet
}

func (r *StreamRun) reset() {
	r.f = r.sm.fwd.Start
	r.pos = 0
	states := r.sm.sfx.NumStates()
	// Clear before sizing: a pooled run still carries the previous
	// document's thread set, and clear needs its live list to reset the
	// touched head entries.
	r.cur.clear()
	r.nxt.clear()
	r.cur.size(states)
	r.nxt.size(states)
}

// Feed consumes one token. It reports whether this token was born as a
// candidate split position that is still worth capturing: the E1 prefix
// accepted, the token is the marked symbol, and the candidate entered the
// live thread set (a newborn shadowed by an older candidate in the same
// suffix state is discarded immediately — it can never beat the older one,
// and their fates coincide thereafter).
func (r *StreamRun) Feed(sym symtab.Symbol) bool {
	sm := r.sm
	j := r.pos
	r.pos = j + 1
	born := r.f != machine.NoState && sym == sm.p && sm.fwd.Accept[r.f]
	k := sm.idx.Index(sym)
	if k < 0 {
		// Out-of-Σ token: no suffix containing it is in L(E2) ⊆ Σ*, so every
		// live candidate dies, and the prefix automaton is dead for good —
		// exactly the two-pass matcher's treatment. (born is necessarily
		// false here: the marked symbol is always in Σ.)
		r.cur.clear()
		r.f = machine.NoState
		return false
	}
	if r.f != machine.NoState {
		r.f = sm.fwd.Step(r.f, k)
	}
	// Advance every live thread, merging threads that land on the same
	// state into the leftmost candidate and discarding threads that enter
	// the doomed region.
	stride := sm.sfx.Stride
	table := sm.sfx.Table
	cur, nxt := r.cur, r.nxt
	for _, q := range cur.live {
		t := table[int(q)*stride+k]
		if sm.doomed[t] {
			continue
		}
		v := cur.head[q]
		if h := nxt.head[t]; h < 0 {
			nxt.head[t] = v
			nxt.live = append(nxt.live, t)
		} else if v < h {
			nxt.head[t] = v
		}
	}
	born = born && !sm.startDoomed && r.inject(j)
	cur.clear()
	r.cur, r.nxt = nxt, cur
	return born
}

// inject adds the candidate born at position j: a fresh suffix thread in
// E2's start state (it has consumed nothing of its suffix yet). Positions
// are strictly increasing, so an occupied start state always already holds
// a smaller (better) candidate.
func (r *StreamRun) inject(j int32) bool {
	start := r.sm.sfx.Start
	if r.nxt.head[start] >= 0 {
		return false
	}
	r.nxt.head[start] = j
	r.nxt.live = append(r.nxt.live, start)
	return true
}

// Live appends the candidate positions that are still in play, one per
// live suffix thread, to dst. Callers capturing match regions use it to
// prune their capture buffers: any captured position not in this set can
// no longer win.
func (r *StreamRun) Live(dst []int32) []int32 {
	for _, q := range r.cur.live {
		dst = append(dst, r.cur.head[q])
	}
	return dst
}

// Find returns the leftmost valid extraction position given the tokens fed
// so far form the complete document, or ok=false when the expression does
// not parse it.
func (r *StreamRun) Find() (pos int, ok bool) {
	best := int32(-1)
	for _, q := range r.cur.live {
		if !r.sm.sfx.Accept[q] {
			continue
		}
		if v := r.cur.head[q]; best < 0 || v < best {
			best = v
		}
	}
	if best < 0 {
		return -1, false
	}
	return int(best), true
}
