package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	h := sha256.New()
	markNames := make([]string, len(m.Marks))
	for i, p := range m.Marks {
		markNames[i] = tab.Name(p)
	}
	fmt.Fprintf(h, "v1|tuple|sigma=%s|marks=%s", strings.Join(names, ","), strings.Join(markNames, ","))
	for i, seg := range m.Segments {
		fmt.Fprintf(h, "|seg%d=%s", i, rx.Fingerprint(seg))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CompileTupleArtifact compiles a persisted tuple expression into a
// shareable artifact: a fresh symbol table and the parsed tuple, with the
// deadline stripped from the stored value exactly like CompileArtifact.
func CompileTupleArtifact(src string, sigmaNames []string, opt machine.Options) (*CompiledTuple, error) {
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll(sigmaNames...)...)
	t, err := ParseTuple(src, tab, sigma, opt)
	if err != nil {
		return nil, err
	}
	t.opt = opt.WithoutContext()
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
	var w codec.Writer
	w.Uint(artifactKindTuple)
	w.String(c.Src)
	w.Uint(uint64(len(c.SigmaNames)))
	for _, n := range c.SigmaNames {
		w.String(n)
	}
	w.Bytes2(c.Tab.Encode())
	marks := c.Tuple.Marks()
	markIDs := make([]int, len(marks))
	for i, p := range marks {
		markIDs[i] = int(p)
	}
	w.Ints(markIDs)
	sigma := c.Tuple.Sigma().Symbols()
	ids := make([]int, len(sigma))
	for i, s := range sigma {
		ids[i] = int(s)
	}
	w.Ints(ids)
	for j := 0; j <= c.Tuple.Arity(); j++ {
		d := c.Tuple.Segment(j).DFA()
		if d == nil {
			return nil, fmt.Errorf("extract: encoding tuple artifact: segment %d has no compiled DFA", j)
		}
		w.Bytes2(d.Encode())
	}
	return codec.Seal(artifactMagic, artifactVersion, w.Bytes()), nil
}

// DecodeTupleArtifact restores a k-ary tuple artifact under opt's budget
// and deadline, with the same integrity posture as DecodeArtifact: the
// embedded source is re-parsed, the persisted table must match the
// re-derived interning, pivot and alphabet ids must agree with the source,
// and every segment DFA must be over the full Σ. Structural damage returns
// an error wrapping codec.ErrMalformedInput; only version-2 frames carry
// tuples, so there is no legacy fallback.
func DecodeTupleArtifact(blob []byte, opt machine.Options) (*CompiledTuple, error) {
	payload, err := codec.Open(artifactMagic, artifactVersion, blob)
	if err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", err)
	}
	r := codec.NewReader(payload)
	switch kind := r.Uint(); {
	case r.Err() != nil:
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", r.Err())
	case kind == artifactKindSingle:
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: frame holds a single-pivot artifact; use DecodeArtifact", codec.ErrMalformedInput)
	case kind != artifactKindTuple:
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: unknown artifact kind %d", codec.ErrMalformedInput, kind)
	}
	src := r.String()
	nNames := r.Len()
	if r.Err() != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", r.Err())
	}
	sigmaNames := make([]string, 0, min(nNames, 1024))
	for i := 0; i < nNames && r.Err() == nil; i++ {
		sigmaNames = append(sigmaNames, r.String())
	}
	tabBlob := r.Bytes2()
	markIDs := r.Ints()
	sigmaIDs := r.Ints()
	if r.Err() != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", r.Err())
	}
	dfaBlobs := make([][]byte, 0, len(markIDs)+1)
	for j := 0; j <= len(markIDs) && r.Err() == nil; j++ {
		dfaBlobs = append(dfaBlobs, r.Bytes2())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", err)
	}

	tab, err := symtab.DecodeTable(tabBlob)
	if err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w", err)
	}
	rederived := symtab.NewTable()
	sigma := symtab.NewAlphabet(rederived.InternAll(sigmaNames...)...)
	m, err := rx.ParseMultiMarked(src, rederived, sigma)
	if err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: embedded source does not parse: %v", codec.ErrMalformedInput, err)
	}
	if !tab.EqualNames(rederived) {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: persisted table disagrees with re-derived interning", codec.ErrMalformedInput)
	}
	if len(m.Marks) != len(markIDs) {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: arity %d disagrees with source (%d)", codec.ErrMalformedInput, len(markIDs), len(m.Marks))
	}
	for i, p := range m.Marks {
		if int(p) != markIDs[i] {
			return nil, fmt.Errorf("extract: decoding tuple artifact: %w: pivot %d disagrees with source", codec.ErrMalformedInput, i+1)
		}
	}
	full := m.Sigma
	for _, seg := range m.Segments {
		full = full.Union(seg.Symbols())
	}
	for _, p := range m.Marks {
		full = full.With(p)
	}
	want := full.Symbols()
	if len(want) != len(sigmaIDs) {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: alphabet disagrees with source", codec.ErrMalformedInput)
	}
	for i, s := range want {
		if int(s) != sigmaIDs[i] {
			return nil, fmt.Errorf("extract: decoding tuple artifact: %w: alphabet disagrees with source", codec.ErrMalformedInput)
		}
	}

	stored := opt.WithoutContext()
	segs := make([]lang.Language, len(dfaBlobs))
	for j, blob := range dfaBlobs {
		d, err := machine.DecodeDFA(blob)
		if err != nil {
			return nil, fmt.Errorf("extract: decoding tuple artifact: segment %d: %w", j, err)
		}
		if !d.Sigma.Equal(full) {
			return nil, fmt.Errorf("extract: decoding tuple artifact: %w: segment %d DFA over wrong Σ", codec.ErrMalformedInput, j)
		}
		// The checksum ties the DFAs to the canonical minimal machines the
		// encoder read out of the tuple — same no-re-minimization contract as
		// the single-pivot decode.
		segs[j] = lang.FromMinimalDFA(d, stored)
	}
	marks := make([]symtab.Symbol, len(markIDs))
	for i, id := range markIDs {
		marks[i] = symtab.Symbol(id)
	}
	t, err := NewTuple(segs, marks)
	if err != nil {
		return nil, fmt.Errorf("extract: decoding tuple artifact: %w: %v", codec.ErrMalformedInput, err)
	}
	t.opt = stored
	t.segASTs = m.Segments
	return &CompiledTuple{
		Tab: tab, Tuple: t,
		Src: src, SigmaNames: sigmaNames,
	}, nil
}
