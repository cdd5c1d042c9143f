package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"resilex/internal/codec"
	"resilex/internal/lang"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// CompiledTuple is the k-ary analogue of Compiled: the symbol table a
// persisted tuple expression was compiled against, the compiled tuple (k+1
// minimal segment DFAs), and the persisted form it came from. Immutable
// after construction and safe for concurrent use; internal/spanner compiles
// its multi-split program straight from the Tuple.
type CompiledTuple struct {
	Tab        *symtab.Table
	Tuple      *Tuple
	Src        string
	SigmaNames []string
}

// KeyTuple returns the content address of a persisted tuple expression —
// the k-ary counterpart of Key, domain-separated from it so a tuple and a
// single-pivot expression can never collide. Like Key it is a pure function
// of the sorted alphabet name set and the canonical segment fingerprints.
func KeyTuple(src string, sigmaNames []string) (string, error) {
	names, tab, sigma := canonicalSigma(sigmaNames)
	m, err := rx.ParseMultiMarked(src, tab, sigma)
	if err != nil {
		return "", fmt.Errorf("extract: tuple cache key: %w", err)
	}
	markNames := make([]string, len(m.Marks))
	for i, p := range m.Marks {
		markNames[i] = tab.Name(p)
	}
	b := []byte("v1|tuple|sigma=" + strings.Join(names, ",") + "|marks=" + strings.Join(markNames, ","))
	for i, seg := range m.Segments {
		b = append(b, "|seg"...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '=')
		b = append(b, rx.Fingerprint(seg)...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CompileTupleArtifact compiles a persisted tuple expression into a
// shareable artifact: a fresh symbol table and the parsed tuple, with the
// deadline stripped from the stored tuple and its segments exactly like
// CompileArtifact.
func CompileTupleArtifact(src string, sigmaNames []string, opt machine.Options) (*CompiledTuple, error) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll(sigmaNames...)...)
	t, err := ParseTuple(src, tab, sigma, opt)
	if err != nil {
		return nil, err
	}
	t.opt = opt.WithoutContext()
	for j := range t.segs {
		t.segs[j] = t.segs[j].WithOptions(t.opt)
	}
	return &CompiledTuple{
		Tab: tab, Tuple: t,
		Src: src, SigmaNames: append([]string(nil), sigmaNames...),
	}, nil
}

// EncodeTupleArtifact serializes a compiled tuple artifact into a version-2
// RXAR frame carrying the tuple kind: the source, the alphabet names, the
// symbol table, the k pivot ids, the full alphabet ids, and the k+1 minimal
// segment DFAs — so DecodeTupleArtifact skips every determinization.
func EncodeTupleArtifact(c *CompiledTuple) ([]byte, error) {
	if c == nil || c.Src == "" || c.Tab == nil || c.Tuple == nil {
		return nil, fmt.Errorf("extract: encoding tuple artifact: no persisted source (artifact not built by CompileTupleArtifact)")
	}
	dfas := make([]*machine.DFA, c.Tuple.Arity()+1)
	for j := range dfas {
		if dfas[j] = c.Tuple.Segment(j).DFA(); dfas[j] == nil {
			return nil, fmt.Errorf("extract: encoding tuple artifact: segment %d has no compiled DFA", j)
		}
	}
	return sealArtifact(artifactKindTuple, c.Src, c.SigmaNames, c.Tab, c.Tuple.Marks(), c.Tuple.Sigma(), dfas), nil
}

// DecodeTupleArtifact restores a k-ary tuple artifact under opt's budget
// and deadline, with the same integrity posture as DecodeArtifact: the
// embedded source is re-parsed, the persisted table must match the
// re-derived interning, pivot and alphabet ids must agree with the source,
// and every segment DFA must be over the full Σ. Structural damage returns
// an error wrapping codec.ErrMalformedInput; only version-2 frames carry
// tuples, so there is no legacy fallback.
func DecodeTupleArtifact(blob []byte, opt machine.Options) (*CompiledTuple, error) {
	var m *rx.MultiMarked
	a, err := openArtifact(blob, artifactKindTuple, func(src string, tab *symtab.Table, sigma symtab.Alphabet) ([]symtab.Symbol, symtab.Alphabet, error) {
		var err error
		if m, err = rx.ParseMultiMarked(src, tab, sigma); err != nil {
			return nil, sigma, err
		}
		full := m.Sigma
		for _, seg := range m.Segments {
			full = full.Union(seg.Symbols())
		}
		for _, p := range m.Marks {
			full = full.With(p)
		}
		return m.Marks, full, nil
	})
	if err != nil {
		return nil, err
	}
	stored := opt.WithoutContext()
	segs := make([]lang.Language, len(a.dfas))
	for j, d := range a.dfas {
		// The checksum ties the DFAs to the canonical minimal machines the
		// encoder read out of the tuple — same no-re-minimization contract as
		// the single-pivot decode.
		segs[j] = lang.FromMinimalDFA(d, stored)
	}
	t, err := NewTuple(segs, m.Marks)
	if err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: %v", codec.ErrMalformedInput, err)
	}
	t.opt = stored
	t.segASTs = m.Segments
	return &CompiledTuple{
		Tab: a.tab, Tuple: t,
		Src: a.src, SigmaNames: a.names,
	}, nil
}
