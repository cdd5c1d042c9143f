package extract

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// E2 state merged, so at most |Q₂| threads are ever live. THEORY.md
// ("One-pass streaming extraction") proves the construction equivalent to
// the two-pass scheme; the differential fuzz target FuzzStreamTwoPassEquiv
// enforces it on every build.
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

	pool       sync.Pool // *StreamRun
	poolHits   atomic.Int64
	poolMisses atomic.Int64
}

// StreamMode selects how much candidate bookkeeping a run keeps.
type StreamMode int

const (
	// FindLeftmost tracks only the leftmost candidate position per live
	// suffix thread — O(|Q₂|) state, no arena, the zero-allocation serving
	// mode. Sufficient for unambiguous expressions, where at most one
	// position survives anyway.
	FindLeftmost StreamMode = iota
	// CollectAll retains every live candidate so End can report the full
	// ascending position list Matcher.All would; the differential tests and
	// the ambiguity-diagnostic paths run in this mode.
	CollectAll
)

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

// P returns the marked symbol the matcher extracts.
func (m *StreamMatcher) P() symtab.Symbol { return m.p }

// Get borrows a run from the matcher's pool (or creates one) and resets it
// for a new document in the given mode. Return it with Put when done; a run
// holds reusable buffers, so the warm Get→Feed…→Put cycle is allocation-free.
func (m *StreamMatcher) Get(mode StreamMode) *StreamRun {
	var r *StreamRun
	if v := m.pool.Get(); v != nil {
		r = v.(*StreamRun)
		m.poolHits.Add(1)
	} else {
		r = &StreamRun{sm: m}
		m.poolMisses.Add(1)
	}
	r.reset(mode)
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

// PoolStats reports cumulative run-pool hits and misses, for the
// extract_stream_pool_* serving metrics.
func (m *StreamMatcher) PoolStats() (hits, misses int64) {
	return m.poolHits.Load(), m.poolMisses.Load()
}

// All runs the matcher over a fully materialized word — the convenience
// surface the equivalence tests compare against Matcher.All.
func (m *StreamMatcher) All(word []symtab.Symbol) []int {
	r := m.Get(CollectAll)
	defer m.Put(r)
	for _, sym := range word {
		r.Feed(sym)
	}
	return r.All(nil)
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
// at least one candidate, and per state either the minimum candidate
// position (FindLeftmost) or the head/tail of an arena-linked candidate
// list (CollectAll). head[q] < 0 means no thread in q.
type threadSet struct {
	live []uint32
	head []int32
	tail []int32
}

func (s *threadSet) size(states int) {
	if cap(s.head) < states {
		s.head = make([]int32, states)
		s.tail = make([]int32, states)
		for i := range s.head {
			s.head[i] = -1
		}
	}
	s.head = s.head[:states]
	s.tail = s.tail[:states]
	s.live = s.live[:0]
}

// clear empties the set via its live list (touched entries only).
func (s *threadSet) clear() {
	for _, q := range s.live {
		s.head[q] = -1
	}
	s.live = s.live[:0]
}

// node is one retained candidate in CollectAll mode: its position and the
// arena index of the next candidate sharing the same automaton state.
type node struct{ pos, next int32 }

// StreamRun is the per-document state of a streaming extraction: the E1
// state, the live suffix-thread set (double-buffered), and — in CollectAll
// mode — the candidate arena. Runs are pooled by their StreamMatcher; all
// buffers are reused across documents, so a warm run never allocates.
// A StreamRun is single-goroutine state.
type StreamRun struct {
	sm   *StreamMatcher
	mode StreamMode
	f    uint32 // E1 state; machine.NoState once an out-of-Σ token is seen
	pos  int32  // tokens consumed

	cur, nxt threadSet

	// CollectAll candidate storage: an arena of linked nodes plus a
	// compaction scratch buffer. liveNodes tracks reachable nodes so
	// compaction triggers when most of the arena is garbage.
	arena     []node
	arenaB    []node
	liveNodes int32
}

func (r *StreamRun) reset(mode StreamMode) {
	r.mode = mode
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
	r.arena = r.arena[:0]
	r.liveNodes = 0
}

// Pos reports the number of tokens consumed so far.
func (r *StreamRun) Pos() int { return int(r.pos) }

// Feed consumes one token. It reports whether this token was born as a
// candidate split position that is still worth capturing: the E1 prefix
// accepted, the token is the marked symbol, and the candidate entered the
// live thread set (in FindLeftmost mode a newborn shadowed by an older
// candidate in the same suffix state is discarded immediately — it can
// never beat the older one, and their fates coincide thereafter).
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
		r.arena = r.arena[:0]
		r.liveNodes = 0
		r.f = machine.NoState
		return false
	}
	if r.f != machine.NoState {
		r.f = sm.fwd.Step(r.f, k)
	}
	// Advance every live thread, merging threads that land on the same
	// state and discarding threads that enter the doomed region.
	stride := sm.sfx.Stride
	table := sm.sfx.Table
	for _, q := range r.cur.live {
		t := table[int(q)*stride+k]
		if sm.doomed[t] {
			if r.mode == CollectAll {
				for i := r.cur.head[q]; i >= 0; i = r.arena[i].next {
					r.liveNodes--
				}
			}
			continue
		}
		if r.mode == FindLeftmost {
			v := r.cur.head[q]
			if h := r.nxt.head[t]; h < 0 {
				r.nxt.head[t] = v
				r.nxt.live = append(r.nxt.live, t)
			} else if v < h {
				r.nxt.head[t] = v
			}
		} else {
			if r.nxt.head[t] < 0 {
				r.nxt.head[t] = r.cur.head[q]
				r.nxt.tail[t] = r.cur.tail[q]
				r.nxt.live = append(r.nxt.live, t)
			} else {
				r.arena[r.nxt.tail[t]].next = r.cur.head[q]
				r.nxt.tail[t] = r.cur.tail[q]
			}
		}
	}
	if born && !sm.startDoomed {
		born = r.inject(j)
	} else {
		born = false
	}
	r.cur.clear()
	r.cur, r.nxt = r.nxt, r.cur
	if r.mode == CollectAll && len(r.arena) > 64 && r.liveNodes*4 < int32(len(r.arena)) {
		r.compact()
	}
	return born
}

// inject adds the candidate born at position j: a fresh suffix thread in
// E2's start state (it has consumed nothing of its suffix yet). Positions
// are strictly increasing, so in FindLeftmost mode an occupied start state
// always already holds a smaller (better) candidate.
func (r *StreamRun) inject(j int32) bool {
	start := r.sm.sfx.Start
	if r.mode == FindLeftmost {
		if r.nxt.head[start] >= 0 {
			return false
		}
		r.nxt.head[start] = j
		r.nxt.live = append(r.nxt.live, start)
		return true
	}
	r.arena = append(r.arena, node{pos: j, next: -1})
	id := int32(len(r.arena) - 1)
	r.liveNodes++
	if r.nxt.head[start] < 0 {
		r.nxt.head[start] = id
		r.nxt.tail[start] = id
		r.nxt.live = append(r.nxt.live, start)
	} else {
		r.arena[r.nxt.tail[start]].next = id
		r.nxt.tail[start] = id
	}
	return true
}

// compact rewrites the arena keeping only nodes reachable from live
// threads, bounding memory by the live-candidate count rather than by the
// number of candidates ever born.
func (r *StreamRun) compact() {
	dst := r.arenaB[:0]
	for _, q := range r.cur.live {
		h := r.cur.head[q]
		if h < 0 {
			continue
		}
		newHead := int32(len(dst))
		for i := h; i >= 0; i = r.arena[i].next {
			dst = append(dst, node{pos: r.arena[i].pos, next: int32(len(dst)) + 1})
		}
		dst[len(dst)-1].next = -1
		r.cur.head[q] = newHead
		r.cur.tail[q] = int32(len(dst) - 1)
	}
	r.arenaB = r.arena
	r.arena = dst
	r.liveNodes = int32(len(dst))
}

// Live appends the candidate positions that are still in play — one per
// live suffix thread in FindLeftmost mode — to dst. Callers capturing match
// regions use it to prune their capture buffers: any captured position not
// in this set can no longer win.
func (r *StreamRun) Live(dst []int32) []int32 {
	for _, q := range r.cur.live {
		if r.mode == FindLeftmost {
			dst = append(dst, r.cur.head[q])
			continue
		}
		for i := r.cur.head[q]; i >= 0; i = r.arena[i].next {
			dst = append(dst, r.arena[i].pos)
		}
	}
	return dst
}

// Find returns the leftmost valid extraction position given the tokens fed
// so far form the complete document, or ok=false when the expression does
// not parse it. Valid in both modes.
func (r *StreamRun) Find() (pos int, ok bool) {
	best := int32(-1)
	for _, q := range r.cur.live {
		if !r.sm.sfx.Accept[q] {
			continue
		}
		if r.mode == FindLeftmost {
			if v := r.cur.head[q]; best < 0 || v < best {
				best = v
			}
			continue
		}
		for i := r.cur.head[q]; i >= 0; i = r.arena[i].next {
			if v := r.arena[i].pos; best < 0 || v < best {
				best = v
			}
		}
	}
	if best < 0 {
		return -1, false
	}
	return int(best), true
}

// All appends every valid extraction position, ascending, to dst —
// CollectAll mode's answer to Matcher.All. In FindLeftmost mode it reports
// at most the per-thread minima that survived (use CollectAll for the full
// set).
func (r *StreamRun) All(dst []int) []int {
	n0 := len(dst)
	for _, q := range r.cur.live {
		if !r.sm.sfx.Accept[q] {
			continue
		}
		if r.mode == FindLeftmost {
			dst = append(dst, int(r.cur.head[q]))
			continue
		}
		for i := r.cur.head[q]; i >= 0; i = r.arena[i].next {
			dst = append(dst, int(r.arena[i].pos))
		}
	}
	slices.Sort(dst[n0:])
	return dst
}
