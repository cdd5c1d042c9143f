package machine

import (
	"fmt"
	"math"

	"resilex/internal/symtab"
)

// NoState is never a Dense state id, so callers can use it as a "no state"
// sentinel. It also bounds a Dense table at NoState states.
const NoState = math.MaxUint32

// Dense is a flattened transition table for a complete DFA: one contiguous
// []uint32 row-major array replacing the per-state slice-of-slices walk (and
// the per-step binary symbol search) of DFA.Step. It is the warm-path
// representation behind the streaming matcher: a step is one multiply, one
// add and one load, with no pointer chasing and no allocation.
//
// A Dense is immutable after Compact and safe for concurrent readers.
type Dense struct {
	// Start is the start state.
	Start uint32
	// Stride is the number of symbols, the row length of Table.
	Stride int
	// Table holds the successor of state s on symbol index k at s*Stride+k.
	Table []uint32
	// Accept marks accepting states.
	Accept []bool

	syms []symtab.Symbol // ascending, as in the source DFA
}

// Compact flattens the DFA into a Dense table. State ids are uint32, so every
// automaton a construction budget admits fits; only an automaton of more than
// NoState states fails.
func (d *DFA) Compact() (*Dense, error) {
	n := d.NumStates()
	if uint64(n) > NoState {
		return nil, fmt.Errorf("machine: %d states exceed the dense-table limit %d", n, uint64(NoState))
	}
	stride := len(d.syms)
	out := &Dense{
		Start:  uint32(d.Start),
		Stride: stride,
		Table:  make([]uint32, n*stride),
		Accept: append([]bool(nil), d.Accept...),
		syms:   d.syms,
	}
	for s := 0; s < n; s++ {
		row := d.Trans[s]
		base := s * stride
		for k := 0; k < stride; k++ {
			out.Table[base+k] = uint32(row[k])
		}
	}
	return out, nil
}

// NumStates reports the number of states.
func (d *Dense) NumStates() int { return len(d.Accept) }

// Symbols returns the dense symbol ordering shared with the source DFA (do
// not modify).
func (d *Dense) Symbols() []symtab.Symbol { return d.syms }

// Step returns the successor of state on symbol index k (not a Symbol — use
// a SymbolIndex to translate). It is the inlinable hot-path step.
func (d *Dense) Step(state uint32, k int) uint32 {
	return d.Table[int(state)*d.Stride+k]
}

// Doomed computes the states from which no accepting state is reachable —
// the sink region of the automaton. A simulation thread entering a doomed
// state can be discarded: it can never contribute a match. The computation
// is a backward reachability sweep from the accept set, linear in the table.
func (d *Dense) Doomed() []bool {
	n := d.NumStates()
	// pred[t] lists states with an edge into t (deduplicated per source row).
	counts := make([]int, n)
	for s := 0; s < n; s++ {
		base := s * d.Stride
		for k := 0; k < d.Stride; k++ {
			counts[d.Table[base+k]]++
		}
	}
	starts := make([]int, n+1)
	for t := 0; t < n; t++ {
		starts[t+1] = starts[t] + counts[t]
	}
	pred := make([]uint32, starts[n])
	fill := append([]int(nil), starts[:n]...)
	for s := 0; s < n; s++ {
		base := s * d.Stride
		for k := 0; k < d.Stride; k++ {
			t := d.Table[base+k]
			pred[fill[t]] = uint32(s)
			fill[t]++
		}
	}
	alive := make([]bool, n)
	var queue []uint32
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			alive[s] = true
			queue = append(queue, uint32(s))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, s := range pred[starts[t]:starts[t+1]] {
			if !alive[s] {
				alive[s] = true
				queue = append(queue, s)
			}
		}
	}
	doomed := make([]bool, n)
	for s := range doomed {
		doomed[s] = !alive[s]
	}
	return doomed
}

// SymbolIndex translates interned Symbols to dense symbol indexes in O(1):
// a direct-indexed array over the symbol-id range of one alphabet. Ids
// outside the alphabet (including symtab.None) map to -1.
type SymbolIndex struct {
	lookup []int32
}

// symbolIndexMax bounds the direct-index array: symbol ids are dense
// (assigned in first-seen order by a Table), so in practice the array is
// tiny; the bound only guards against a pathological table.
const symbolIndexMax = 1 << 20

// NewSymbolIndex builds the translation array for sigma's symbols in their
// ascending (dense) order — the same order DFA.Symbols uses, so the returned
// indexes are valid against any Dense compacted from a DFA over sigma.
func NewSymbolIndex(sigma symtab.Alphabet) (*SymbolIndex, error) {
	max := sigma.Max()
	if int(max) >= symbolIndexMax {
		return nil, fmt.Errorf("machine: symbol id %d exceeds the dense symbol-index bound", max)
	}
	lookup := make([]int32, int(max)+1)
	for i := range lookup {
		lookup[i] = -1
	}
	for k, s := range sigma.Symbols() {
		lookup[s] = int32(k)
	}
	return &SymbolIndex{lookup: lookup}, nil
}

// Index returns the dense index of sym, or -1 when sym is outside the
// alphabet (including symtab.None).
func (x *SymbolIndex) Index(sym symtab.Symbol) int {
	if sym < 0 || int(sym) >= len(x.lookup) {
		return -1
	}
	return int(x.lookup[sym])
}
