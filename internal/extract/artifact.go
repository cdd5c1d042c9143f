package extract

import (
	"errors"
	"fmt"
	"slices"

	"resilex/internal/codec"
	"resilex/internal/lang"
	"resilex/internal/machine"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// artifactMagic / artifactVersion frame a persisted compiled artifact: the
// expression source, its alphabet, the symbol table it was compiled against,
// and the component minimal DFAs — everything the serving path needs to
// rebuild a Compiled without determinizing. Version 2 prefixes the payload
// with a kind discriminator so one frame format carries both single-pivot
// and k-ary (tuple) artifacts; version-1 frames (kindless single-pivot
// payloads) still decode. Bump the version on any payload change; the disk
// cache discards unknown versions and recompiles.
const (
	artifactMagic         = "RXAR"
	artifactVersion       = 2
	artifactVersionLegacy = 1

	artifactKindSingle = 0 // E1⟨p⟩E2, two component DFAs
	artifactKindTuple  = 1 // E0⟨p1⟩…⟨pk⟩Ek, k+1 segment DFAs (see tupleartifact.go)
)

// EncodeArtifact serializes a compiled artifact into a framed binary blob
// (magic, format version, SHA-256 checksum — see internal/codec). The blob
// carries the expression *source* for cheap re-parsing plus the component
// minimal DFAs, so DecodeArtifact skips exactly the worst-case-exponential
// work: subset construction. Artifacts produced by CompileArtifact always
// encode; synthesized Compiled values missing their source are rejected.
func EncodeArtifact(c *Compiled) ([]byte, error) {
	if c == nil || c.Src == "" || c.Tab == nil {
		return nil, fmt.Errorf("extract: encoding artifact: no persisted source (artifact not built by CompileArtifact)")
	}
	left, right := c.Expr.Left().DFA(), c.Expr.Right().DFA()
	if left == nil || right == nil {
		return nil, fmt.Errorf("extract: encoding artifact: expression has no compiled components")
	}
	return sealArtifact(artifactKindSingle, c.Src, c.SigmaNames, c.Tab,
		[]symtab.Symbol{c.Expr.P()}, c.Expr.Sigma(), []*machine.DFA{left, right}), nil
}

// DecodeArtifact restores a compiled artifact under opt's budget and
// deadline. The restore path re-parses the embedded source (linear), decodes
// the component DFAs, re-minimizes them (polynomial on already-minimal
// input) and rebuilds the matcher's predecessor tables (linear) — no subset
// construction runs, which is the entire point of persisting artifacts.
//
// Decode never panics on corrupt input: frame damage, checksum mismatches
// and structural inconsistencies — a table that does not match the source's
// interning order, a marked symbol or alphabet that disagrees with the
// re-parse, component DFAs over the wrong Σ — all return an error wrapping
// codec.ErrMalformedInput. The checksum ties the DFAs to the encode-time
// machines against corruption; it is not a defense against an adversary who
// can write the cache directory.
func DecodeArtifact(blob []byte, opt machine.Options) (*Compiled, error) {
	var m *rx.Marked
	a, err := openArtifact(blob, artifactKindSingle, func(src string, tab *symtab.Table, sigma symtab.Alphabet) ([]symtab.Symbol, symtab.Alphabet, error) {
		var err error
		if m, err = rx.ParseMarked(src, tab, sigma); err != nil {
			return nil, sigma, err
		}
		return []symtab.Symbol{m.P}, m.Sigma.Union(m.Left.Symbols()).Union(m.Right.Symbols()).With(m.P), nil
	})
	if err != nil {
		return nil, err
	}
	stored := opt.WithoutContext()
	// The checksum ties these DFAs byte-for-byte to the canonical minimal
	// machines EncodeArtifact read out of a Language, so they re-enter the
	// Language invariant directly — no re-minimization, keeping decode
	// linear in the artifact size.
	leftLang := lang.FromMinimalDFA(a.dfas[0], opt)
	rightLang := lang.FromMinimalDFA(a.dfas[1], opt)

	e := New(leftLang.WithOptions(stored), m.P, rightLang.WithOptions(stored))
	e.opt = stored
	e.leftAST, e.rightAST = m.Left, m.Right
	matcher, err := e.Compile()
	if err != nil {
		return nil, fmt.Errorf("extract: decoding artifact: %w", err)
	}
	e.mc.once.Do(func() { e.mc.m = matcher })
	return &Compiled{
		Tab: a.tab, Expr: e, Matcher: matcher,
		Src: a.src, SigmaNames: a.names,
	}, nil
}

// Both payload kinds share one layout after the kind byte: the source, the
// Σ names, the symbol table, the pivot ids (one varint for a single pivot,
// a list for k), the full alphabet's ids, and the component DFAs — left and
// right, or the k+1 segments.

// sealArtifact frames one payload of either kind.
func sealArtifact(kind uint64, src string, names []string, tab *symtab.Table, pivots []symtab.Symbol, sigma symtab.Alphabet, dfas []*machine.DFA) []byte {
	var w codec.Writer
	w.Uint(kind)
	w.String(src)
	w.Uint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	w.Bytes2(tab.Encode())
	if kind == artifactKindSingle {
		w.Int(int64(pivots[0]))
	} else {
		w.Ints(symbolIDs(pivots))
	}
	w.Ints(symbolIDs(sigma.Symbols()))
	for _, d := range dfas {
		w.Bytes2(d.Encode())
	}
	return codec.Seal(artifactMagic, artifactVersion, w.Bytes())
}

func symbolIDs(syms []symtab.Symbol) []int {
	ids := make([]int, len(syms))
	for i, s := range syms {
		ids[i] = int(s)
	}
	return ids
}

// artifactPayload is one payload of either kind: its fields as read off the
// frame, then the table and DFAs once check has verified them.
type artifactPayload struct {
	src      string
	names    []string
	tabBlob  []byte
	pivotIDs []int
	sigmaIDs []int
	dfaBlobs [][]byte

	tab  *symtab.Table
	dfas []*machine.DFA
}

// rederive re-parses an embedded source over a fresh table that interned the
// payload's Σ names, returning the pivots and the full alphabet the source
// implies.
type rederive func(src string, tab *symtab.Table, sigma symtab.Alphabet) ([]symtab.Symbol, symtab.Alphabet, error)

// openArtifact reads a frame as kind want and checks it against its own
// source — the shared decode of DecodeArtifact and DecodeTupleArtifact.
func openArtifact(blob []byte, want uint64, parse rederive) (*artifactPayload, error) {
	a, err := readArtifact(blob, want)
	if err == nil {
		err = a.check(parse)
	}
	if err != nil {
		what := "artifact"
		if want == artifactKindTuple {
			what = "tuple artifact"
		}
		return nil, fmt.Errorf("extract: decoding %s: %w", what, err)
	}
	return a, nil
}

// readArtifact verifies a frame and reads its payload as kind want. A
// version-1 frame predates the kind byte and is always single-pivot; it
// stays decodable so a cache directory written by an older binary warms a
// newer one.
func readArtifact(blob []byte, want uint64) (*artifactPayload, error) {
	payload, err := codec.Open(artifactMagic, artifactVersion, blob)
	var r *codec.Reader
	switch {
	case err == nil:
		r = codec.NewReader(payload)
		switch kind := r.Uint(); {
		case r.Err() != nil:
			return nil, r.Err()
		case kind == want:
		case kind == artifactKindSingle:
			return nil, fmt.Errorf("%w: frame holds a single-pivot artifact; use DecodeArtifact", codec.ErrMalformedInput)
		case kind == artifactKindTuple:
			return nil, fmt.Errorf("%w: frame holds a k-ary tuple artifact; use DecodeTupleArtifact", codec.ErrMalformedInput)
		default:
			return nil, fmt.Errorf("%w: unknown artifact kind %d", codec.ErrMalformedInput, kind)
		}
	case want == artifactKindSingle && errors.Is(err, codec.ErrVersionMismatch):
		legacy, lerr := codec.Open(artifactMagic, artifactVersionLegacy, blob)
		if lerr != nil {
			return nil, err
		}
		r = codec.NewReader(legacy)
	default:
		return nil, err
	}

	a := &artifactPayload{src: r.String()}
	nNames := r.Len()
	a.names = make([]string, 0, min(nNames, 1024))
	for i := 0; i < nNames && r.Err() == nil; i++ {
		a.names = append(a.names, r.String())
	}
	a.tabBlob = r.Bytes2()
	if want == artifactKindSingle {
		a.pivotIDs = []int{int(r.Int())}
	} else {
		a.pivotIDs = r.Ints()
	}
	a.sigmaIDs = r.Ints()
	for j := 0; j <= len(a.pivotIDs) && r.Err() == nil; j++ {
		a.dfaBlobs = append(a.dfaBlobs, r.Bytes2())
	}
	return a, r.Done()
}

// check re-derives the payload from its own source exactly the way the
// compile built it. The persisted table must match the re-derived
// interning — this pins every symbol id in the decoded DFAs to the name the
// source meant, so a decoded artifact can never silently bind ids to
// different tokens — and so must the pivot and alphabet ids, and the Σ of
// every DFA.
func (a *artifactPayload) check(parse rederive) error {
	tab, err := symtab.DecodeTable(a.tabBlob)
	if err != nil {
		return err
	}
	rederived := symtab.NewTable()
	pivots, full, err := parse(a.src, rederived, symtab.NewAlphabet(rederived.InternAll(a.names...)...))
	switch {
	case err != nil:
		return fmt.Errorf("%w: embedded source does not parse: %v", codec.ErrMalformedInput, err)
	case !tab.EqualNames(rederived):
		return fmt.Errorf("%w: persisted table disagrees with re-derived interning", codec.ErrMalformedInput)
	case !slices.Equal(symbolIDs(pivots), a.pivotIDs):
		return fmt.Errorf("%w: pivots %v disagree with source (%v)", codec.ErrMalformedInput, a.pivotIDs, pivots)
	case !slices.Equal(symbolIDs(full.Symbols()), a.sigmaIDs):
		return fmt.Errorf("%w: alphabet disagrees with source", codec.ErrMalformedInput)
	}
	a.tab, a.dfas = tab, make([]*machine.DFA, len(a.dfaBlobs))
	for j, blob := range a.dfaBlobs {
		if a.dfas[j], err = machine.DecodeDFA(blob); err != nil {
			return fmt.Errorf("component %d: %w", j, err)
		}
		if !a.dfas[j].Sigma.Equal(full) {
			return fmt.Errorf("%w: component %d DFA over wrong Σ", codec.ErrMalformedInput, j)
		}
	}
	return nil
}
