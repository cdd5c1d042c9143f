package machine

import (
	"fmt"

	"resilex/internal/codec"
	"resilex/internal/symtab"
)

// The framed format for persisted minimal DFAs — the component automata
// inside compiled artifacts. It shares the corruption policy of
// internal/codec: any mismatch (magic, version, checksum, structural
// invariant) is an error wrapping codec.ErrMalformedInput, never a panic.
const (
	dfaMagic = "RXDF"

	automatonVersion = 1
)

func encodeAlphabet(w *codec.Writer, a symtab.Alphabet) {
	syms := a.Symbols()
	ids := make([]int, len(syms))
	for i, s := range syms {
		ids[i] = int(s)
	}
	w.Ints(ids)
}

// decodeAlphabet reads an alphabet and insists the persisted ids are
// strictly increasing non-negative symbols — the canonical form Symbols()
// emits — so the decoded alphabet's dense ordering matches the persisted
// transition-table columns exactly.
func decodeAlphabet(r *codec.Reader) (symtab.Alphabet, error) {
	ids := r.Ints()
	if err := r.Err(); err != nil {
		return symtab.Alphabet{}, err
	}
	syms := make([]symtab.Symbol, len(ids))
	for i, id := range ids {
		if id < 0 || (i > 0 && id <= ids[i-1]) {
			return symtab.Alphabet{}, fmt.Errorf("%w: alphabet ids not strictly increasing", codec.ErrMalformedInput)
		}
		syms[i] = symtab.Symbol(id)
	}
	return symtab.NewAlphabet(syms...), nil
}

// Encode serializes the DFA — alphabet, start state, accept set and the full
// transition table — into a framed binary blob. Decoding with DecodeDFA
// restores a structurally identical automaton.
func (d *DFA) Encode() []byte {
	var w codec.Writer
	encodeAlphabet(&w, d.Sigma)
	w.Int(int64(d.Start))
	w.Uint(uint64(d.NumStates()))
	w.Bools(d.Accept)
	for _, row := range d.Trans {
		for _, t := range row {
			w.Int(int64(t))
		}
	}
	return codec.Seal(dfaMagic, automatonVersion, w.Bytes())
}

// DecodeDFA restores a DFA from Encode's output. Corrupt input never panics:
// truncation, checksum mismatch, out-of-range states or a start state outside
// the automaton all return an error wrapping codec.ErrMalformedInput. A
// successfully decoded DFA is structurally valid — complete, with every
// transition target in range — but the checksum, not the decoder, is what
// ties it to the automaton that was encoded.
func DecodeDFA(blob []byte) (*DFA, error) {
	payload, err := codec.Open(dfaMagic, automatonVersion, blob)
	if err != nil {
		return nil, fmt.Errorf("machine: decoding DFA: %w", err)
	}
	r := codec.NewReader(payload)
	sigma, err := decodeAlphabet(r)
	if err != nil {
		return nil, fmt.Errorf("machine: decoding DFA: %w", err)
	}
	start := int(r.Int())
	states := r.Len()
	accept := r.Bools()
	d := newDFA(sigma)
	d.Start = start
	d.Accept = accept
	d.Trans = make([][]int, 0, states)
	for s := 0; s < states && r.Err() == nil; s++ {
		row := make([]int, len(d.syms))
		for k := range row {
			row[k] = int(r.Int())
		}
		d.Trans = append(d.Trans, row)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("machine: decoding DFA: %w", err)
	}
	if len(d.Accept) != states || states == 0 {
		return nil, fmt.Errorf("%w: DFA with %d accept bits for %d states", codec.ErrMalformedInput, len(d.Accept), states)
	}
	if d.Start < 0 || d.Start >= states {
		return nil, fmt.Errorf("%w: DFA start state %d out of range", codec.ErrMalformedInput, d.Start)
	}
	for s, row := range d.Trans {
		for _, t := range row {
			if t < 0 || t >= states {
				return nil, fmt.Errorf("%w: DFA transition %d→%d out of range", codec.ErrMalformedInput, s, t)
			}
		}
	}
	return d, nil
}
