package seqfuzz

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
	"resilex/internal/wrapper"
)

// The fixed operand pools. Fuzz bytes select from them by index, so the
// interpreter never has to validate free-form strings and every selector
// value is meaningful. The wrapper family is the one the serve and refresh
// tests rally around: a search form extracted from two layouts of the same
// site, a redesigned layout neither original sample covers (so rollouts can
// be made to miss on demand), and deliberately unusable payloads that must
// fail registration in the malformed-input class without mutating state.

const poolPageTop = `<P>
<H1>Virtual Supplier, Inc.</H1>
<P>
<form method="post" action="search.cgi">
<input type="image" align="left" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<br />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form>`

const poolPageBottom = `<table>
<tr><td><h1>Virtual Supplier, Inc.</h1></td></tr>
<tr><td><form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
<input type="radio" name="attr" value="1" checked> Keywords<br />
<input type="radio" name="attr" value="2"> Manufacturer Part#
</form></td></tr>
</table>`

const poolPageFuture = `<div class="search"><span>find parts</span>
<form method="post" action="search.cgi">
<input type="image" src="search.gif" />
<input type="text" size="15" name="value" data-target />
</form></div>`

// poolPageRecords is a three-column record table for the k-ary tuple
// family: the two-pivot expression finds two cell pairs per row, the
// three-pivot one a full row each — enough ambiguity that the one-pass
// spanner's enumeration order is actually exercised.
const poolPageRecords = `<table>
<tr><td>bolt</td><td>M4</td><td>$0.10</td></tr>
<tr><td>nut</td><td>M4</td><td>$0.08</td></tr>
</table>`

// opt is the construction budget every compile in the harness runs under:
// generous enough that the pooled expressions always fit, small enough that
// a pathological interleaving cannot make one op expensive.
func opt() machine.Options { return machine.Options{MaxStates: 4096} }

// docRef is the precomputed reference answer for one (payload, document)
// pair: the document tokenized against the payload's canonical artifact,
// the eager matcher's full answers, and the reference wrapper's extraction
// outcome — the single source of truth every live surface is compared to.
type docRef struct {
	syms    []symtab.Symbol
	all     []int
	findPos int
	findOK  bool
	region  wrapper.Region
	class   string
}

// payloadSpec is one pool wrapper payload with its reference machinery.
// Invalid payloads carry only their bytes; every surface must reject them
// in the malformed-input class.
type payloadSpec struct {
	data  []byte
	valid bool

	src      string
	sigma    []string
	cfg      wrapper.Config
	compiled *extract.Compiled // canonical eager artifact
	ref      *wrapper.Wrapper  // reference: plain Load, no cache
	docs     []docRef          // indexed like pool.docs
}

// mapper builds the payload's tokenizer over tab — the same construction
// wrapper.Config performs, re-derived from the persisted fields so the
// reference tokenization matches what every Load of the payload does.
func (ps *payloadSpec) mapper(tab *symtab.Table) *htmltok.Mapper {
	m := htmltok.NewMapper(tab)
	m.KeepEndTags = !ps.cfg.DropEndTags
	m.KeepText = ps.cfg.KeepText
	m.AttrKeys = ps.cfg.AttrKeys
	if len(ps.cfg.Skip) > 0 {
		m.Skip = map[string]bool{}
		for _, s := range ps.cfg.Skip {
			m.Skip[s] = true
		}
	}
	return m
}

type opPool struct {
	keys     []string
	docs     []string
	payloads []*payloadSpec
	nValid   int // payloads[:nValid] are the compilable ones
	tuples   []*tupleSpec
}

// tupleSpec is one pooled k-ary tuple expression with its reference
// machinery: the pristine compiled artifact (never tokenized against, so
// its table stays exactly what CompileTupleArtifact produced and the
// encode→decode round trip stays honest), the pool documents tokenized
// over a clone of its table, and the naive k-nested oracle's full vector
// enumeration per document.
type tupleSpec struct {
	src   string
	sigma []string
	comp  *extract.CompiledTuple
	words [][]symtab.Symbol // indexed like pool.docs
	want  [][][]int         // NaiveTuples reference, indexed like pool.docs
}

// tupleSigma covers every tag the pool documents emit, so the oracle sees
// the same words the spanner does instead of everything collapsing to
// out-of-Σ rejects.
var tupleSigma = []string{
	"P", "/P", "H1", "/H1", "FORM", "/FORM", "INPUT", "BR",
	"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD",
	"DIV", "/DIV", "SPAN", "/SPAN", "SCRIPT", "/SCRIPT",
	"HTML", "/HTML", "BODY", "/BODY",
}

func buildTupleSpec(src string, sigma []string, docs []string) *tupleSpec {
	comp, err := extract.CompileTupleArtifact(src, sigma, opt())
	if err != nil {
		panic(fmt.Sprintf("seqfuzz: compiling pool tuple %q: %v", src, err))
	}
	// Tokenize over a clone of comp's table for the same reason buildSpec
	// does: mapping interns out-of-Σ tag names, and comp's table must stay
	// pristine.
	ts := &tupleSpec{src: src, sigma: sigma, comp: comp}
	mapper := htmltok.NewMapper(comp.Tab.Clone()) // defaults: end tags kept, text dropped
	for _, html := range docs {
		word := mapper.Map(html).Syms
		ts.words = append(ts.words, word)
		ts.want = append(ts.want, spanner.NaiveTuples(comp.Tuple, word))
	}
	return ts
}

// getPool builds the fixed pools once per process: train the wrapper
// family, persist it, and precompute every reference answer with the
// dumbest correct implementation (plain Load + eager two-scan matcher).
// Pool construction failing is a fixture bug, not fuzz input — panic.
var getPool = sync.OnceValue(buildPool)

func buildPool() *opPool {
	p := &opPool{
		keys: []string{"alpha", "beta", "gamma"},
		docs: []string{
			poolPageTop,
			poolPageBottom,
			poolPageFuture,
			"<html><body>nothing here</body></html>",
			"",
			// Historical htmltok crashers, kept live so every sequence that
			// extracts from them re-runs the regression.
			"<p>x</p/",
			"<sCript>\xfd\xd4\xec\xb0\xe8</sCript",
			poolPageRecords,
		},
	}
	train := func(samples ...wrapper.Sample) []byte {
		w, err := wrapper.Train(samples, wrapper.Config{Skip: []string{"BR"}, Options: opt()})
		if err != nil {
			panic(fmt.Sprintf("seqfuzz: training pool wrapper: %v", err))
		}
		data, err := w.MarshalJSON()
		if err != nil {
			panic(fmt.Sprintf("seqfuzz: persisting pool wrapper: %v", err))
		}
		return data
	}
	valid := [][]byte{
		train(wrapper.Sample{HTML: poolPageTop, Target: wrapper.TargetMarker()},
			wrapper.Sample{HTML: poolPageBottom, Target: wrapper.TargetMarker()}),
		train(wrapper.Sample{HTML: poolPageFuture, Target: wrapper.TargetMarker()}),
		train(wrapper.Sample{HTML: poolPageTop, Target: wrapper.TargetMarker()}),
	}
	for _, data := range valid {
		p.payloads = append(p.payloads, buildSpec(data, p.docs))
	}
	p.nValid = len(p.payloads)
	// Unusable payloads: undecodable JSON, and a decodable wrapper of a
	// version this binary does not speak. Both must classify as malformed.
	p.payloads = append(p.payloads,
		&payloadSpec{data: []byte("{")},
		&payloadSpec{data: []byte(`{"version":99,"expr":"x","sigma":["X"]}`)},
	)
	// The k-ary tuple family: ambiguous pairs (two per record row, many per
	// search form), and an exact three-column row.
	for _, src := range []string{
		".* <TD> /TD <TD> .*",
		".* <TD> /TD <TD> /TD <TD> .*",
		".* <INPUT> .* <INPUT> .*",
	} {
		p.tuples = append(p.tuples, buildTupleSpec(src, tupleSigma, p.docs))
	}
	return p
}

func buildSpec(data []byte, docs []string) *payloadSpec {
	var persisted struct {
		Expr        string   `json:"expr"`
		Sigma       []string `json:"sigma"`
		DropEndTags bool     `json:"dropEndTags"`
		KeepText    bool     `json:"keepText"`
		AttrKeys    []string `json:"attrKeys"`
		Skip        []string `json:"skip"`
	}
	if err := json.Unmarshal(data, &persisted); err != nil {
		panic(fmt.Sprintf("seqfuzz: pool payload does not decode: %v", err))
	}
	ps := &payloadSpec{
		data:  data,
		valid: true,
		src:   persisted.Expr,
		sigma: persisted.Sigma,
		cfg: wrapper.Config{
			DropEndTags: persisted.DropEndTags,
			KeepText:    persisted.KeepText,
			AttrKeys:    persisted.AttrKeys,
			Skip:        persisted.Skip,
			Options:     opt(),
		},
	}
	compiled, err := extract.CompileArtifact(ps.src, ps.sigma, opt())
	if err != nil {
		panic(fmt.Sprintf("seqfuzz: compiling pool artifact: %v", err))
	}
	ps.compiled = compiled
	ref, err := wrapper.Load(data, opt())
	if err != nil {
		panic(fmt.Sprintf("seqfuzz: loading pool reference wrapper: %v", err))
	}
	ps.ref = ref

	// Tokenize the reference documents over a clone of ps.compiled's table:
	// mapping interns out-of-Σ tag names into the table it runs over, and
	// ps.compiled's table must stay exactly what CompileArtifact produced or
	// EncodeArtifact's table/re-derivation agreement breaks. The clone keeps
	// every id, so answers stay comparable.
	mapper := ps.mapper(compiled.Tab.Clone())
	ps.docs = make([]docRef, len(docs))
	for i, html := range docs {
		doc := mapper.Map(html)
		dr := docRef{syms: doc.Syms, all: compiled.Matcher.All(doc.Syms)}
		dr.findPos, dr.findOK = compiled.Matcher.Find(doc.Syms)
		reg, xerr := ref.Extract(html)
		dr.region = reg
		dr.class = classOf(xerr)
		ps.docs[i] = dr
	}
	return ps
}

// classOf collapses an error to its taxonomy class — the granularity the
// cross-check compares at. An error outside the documented taxonomy is its
// own class (prefixed "other:"), so it can never silently match a model
// prediction.
func classOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wrapper.ErrNotExtracted):
		return "no_match"
	case errors.Is(err, wrapper.ErrUnknownKey):
		return "unknown_key"
	case errors.Is(err, wrapper.ErrMalformedInput):
		return "malformed"
	case errors.Is(err, machine.ErrBudget):
		return "budget"
	case errors.Is(err, machine.ErrDeadline):
		return "deadline"
	default:
		return "other: " + err.Error()
	}
}
