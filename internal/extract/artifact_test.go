package extract

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"resilex/internal/codec"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// htmlSigmaNames is the Figure 1 tag alphabet as persisted-wrapper sigma
// names — the same set newHTMLEnv interns.
var htmlSigmaNames = []string{
	"P", "H1", "/H1", "FORM", "/FORM", "INPUT", "BR",
	"TABLE", "/TABLE", "TR", "/TR", "TD", "/TD", "TH", "/TH", "IMG", "A", "/A",
}

// artifactFixtures is every fixture expression in the repo's extraction test
// suite — the token-level E1–E12 fixtures plus the HTML-level Figure 1
// fixtures — as (source, sigma names) pairs for the artifact codec.
func artifactFixtures() []struct {
	src   string
	names []string
} {
	var out []struct {
		src   string
		names []string
	}
	for _, f := range tokenFixtures {
		names := []string{"p", "q"}
		if f.sigma == 3 {
			names = []string{"p", "q", "r"}
		}
		out = append(out, struct {
			src   string
			names []string
		}{f.src, names})
	}
	for _, src := range htmlFixtures {
		out = append(out, struct {
			src   string
			names []string
		}{src, htmlSigmaNames})
	}
	return out
}

// artifactWords builds the document sweep for one artifact: every word up to
// a length bound when the alphabet is small, plus seeded random words —
// including ones with an out-of-Σ symbol — for larger alphabets.
func artifactWords(tab *symtab.Table, sigma symtab.Alphabet, seed int64) [][]symtab.Symbol {
	syms := sigma.Symbols()
	var out [][]symtab.Symbol
	if len(syms) <= 3 {
		out = allWords(sigma, 5)
	}
	rng := rand.New(rand.NewSource(seed))
	oov := tab.Intern("artifact-test-out-of-sigma")
	for i := 0; i < 60; i++ {
		w := make([]symtab.Symbol, rng.Intn(40))
		for j := range w {
			w[j] = syms[rng.Intn(len(syms))]
		}
		out = append(out, w)
		if len(w) > 0 && i%5 == 0 {
			mut := append([]symtab.Symbol(nil), w...)
			mut[rng.Intn(len(mut))] = oov
			out = append(out, mut)
		}
	}
	return out
}

// TestArtifactRoundTripFixtures is the round-trip property: for every
// fixture expression, encode→decode→extract agrees token-for-token with the
// freshly compiled matcher, on both the two-scan and the one-pass path.
func TestArtifactRoundTripFixtures(t *testing.T) {
	for _, f := range artifactFixtures() {
		f := f
		t.Run(f.src, func(t *testing.T) {
			fresh, err := CompileArtifact(f.src, f.names, machine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := EncodeArtifact(fresh)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeArtifact(blob, machine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !fresh.Tab.EqualNames(got.Tab) {
				t.Fatal("decoded table names differ")
			}
			if got.Expr.P() != fresh.Expr.P() || !got.Expr.Sigma().Equal(fresh.Expr.Sigma()) {
				t.Fatal("decoded marked symbol or Σ differ")
			}
			if !machine.StructurallyEqual(fresh.Expr.Left().DFA(), got.Expr.Left().DFA()) ||
				!machine.StructurallyEqual(fresh.Expr.Right().DFA(), got.Expr.Right().DFA()) {
				t.Fatal("decoded component DFAs differ structurally")
			}
			stream, err := got.Expr.CompileStream()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range artifactWords(got.Tab, got.Expr.Sigma(), 7) {
				want := fresh.Matcher.All(w)
				twoScan := got.Matcher.All(w)
				if len(want) != len(twoScan) {
					t.Fatalf("on %v: decoded %v, fresh %v", w, twoScan, want)
				}
				for i := range want {
					if want[i] != twoScan[i] {
						t.Fatalf("on %v: decoded %v, fresh %v", w, twoScan, want)
					}
				}
				wantPos, wantOK := fresh.Matcher.Find(w)
				if pos, ok := stream.Find(w); ok != wantOK || ok && pos != wantPos {
					t.Fatalf("on %v: decoded one-pass Find %d,%v, fresh %d,%v", w, pos, ok, wantPos, wantOK)
				}
			}
		})
	}
}

// TestArtifactEncodeDeterministic: re-encoding a decoded artifact reproduces
// the original blob byte for byte. Determinism is what makes the blobs
// shareable under a content address: every process that compiles one
// expression persists one identical artifact.
func TestArtifactEncodeDeterministic(t *testing.T) {
	for _, f := range artifactFixtures()[:6] {
		c, err := CompileArtifact(f.src, f.names, machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeArtifact(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeArtifact(blob, machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blob2, err := EncodeArtifact(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: re-encoded blob differs", f.src)
		}
	}
}

func TestDecodeArtifactRejectsCorruption(t *testing.T) {
	c, err := CompileArtifact("q p <p> q*", []string{"p", "q"}, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeArtifact(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(nil, machine.Options{}); !errors.Is(err, codec.ErrMalformedInput) {
		t.Errorf("nil blob: err = %v", err)
	}
	if _, err := DecodeArtifact(blob[:len(blob)-3], machine.Options{}); !errors.Is(err, codec.ErrMalformedInput) {
		t.Errorf("truncated blob: err = %v", err)
	}
	// A stale format version is malformed — and distinguishable, so the disk
	// tier can count stale discards apart from bit rot.
	stale := append([]byte(nil), blob...)
	stale[4]++
	if _, err := DecodeArtifact(stale, machine.Options{}); !errors.Is(err, codec.ErrVersionMismatch) {
		t.Errorf("stale version: err = %v, want ErrVersionMismatch", err)
	}
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x20
		if _, err := DecodeArtifact(mut, machine.Options{}); !errors.Is(err, codec.ErrMalformedInput) {
			t.Fatalf("bit flip at %d: err = %v, want ErrMalformedInput", i, err)
		}
	}
}

// TestEncodeArtifactRequiresSource: only CompileArtifact-built values — the
// ones that kept their persisted source — can be persisted.
func TestEncodeArtifactRequiresSource(t *testing.T) {
	e := newTenv()
	x := e.expr(t, "q* <p> .*", e.sigma2)
	if _, err := EncodeArtifact(&Compiled{Tab: e.tab, Expr: x}); err == nil {
		t.Fatal("artifact without source encoded")
	}
	if _, err := EncodeArtifact(nil); err == nil {
		t.Fatal("nil artifact encoded")
	}
}

// FuzzDecodeArtifact asserts the decode contract on arbitrary bytes: never a
// panic, and any blob that decodes successfully is equivalence-checked
// against a fresh compilation of its own embedded source.
func FuzzDecodeArtifact(f *testing.F) {
	for _, fix := range []struct {
		src   string
		names []string
	}{
		{"q* <p> .*", []string{"p", "q"}},
		{"(p | p p) <p> (p | p p)", []string{"p", "q"}},
		{"q* r <p> r q*", []string{"p", "q", "r"}},
		{"FORM INPUT <INPUT> .*", htmlSigmaNames},
	} {
		c, err := CompileArtifact(fix.src, fix.names, machine.Options{})
		if err != nil {
			f.Fatal(err)
		}
		blob, err := EncodeArtifact(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut)
	}
	// k-ary frames share the RXAR v2 framing; seed one plus damaged variants
	// so both decode entry points chew on tuple payloads.
	for _, fix := range []struct {
		src   string
		names []string
	}{
		{"q* <p> q* <r> .*", []string{"p", "q", "r"}},
		{".* <p> .* <p> .*", []string{"p", "q"}},
	} {
		ct, err := CompileTupleArtifact(fix.src, fix.names, machine.Options{})
		if err != nil {
			f.Fatal(err)
		}
		blob, err := EncodeTupleArtifact(ct)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte("RXAR"))
	f.Add([]byte{})
	opt := machine.Options{MaxStates: 1 << 12}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeArtifact(data, opt)
		if err == nil {
			fresh, err := CompileArtifact(got.Src, got.SigmaNames, opt)
			if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
				return // cannot re-derive the reference machine under the fuzz budget
			}
			if err != nil {
				t.Fatalf("decoded artifact's source does not compile: %v", err)
			}
			if got.Expr.P() != fresh.Expr.P() ||
				!machine.StructurallyEqual(fresh.Expr.Left().DFA(), got.Expr.Left().DFA()) ||
				!machine.StructurallyEqual(fresh.Expr.Right().DFA(), got.Expr.Right().DFA()) {
				t.Fatal("decoded artifact not equivalent to fresh compilation")
			}
		} else if got != nil {
			t.Fatal("decode returned both artifact and error")
		}

		tgot, terr := DecodeTupleArtifact(data, opt)
		if terr != nil {
			if tgot != nil {
				t.Fatal("tuple decode returned both artifact and error")
			}
			return
		}
		tfresh, err := CompileTupleArtifact(tgot.Src, tgot.SigmaNames, opt)
		if errors.Is(err, machine.ErrBudget) || errors.Is(err, machine.ErrDeadline) {
			return
		}
		if err != nil {
			t.Fatalf("decoded tuple artifact's source does not compile: %v", err)
		}
		if tgot.Tuple.Arity() != tfresh.Tuple.Arity() {
			t.Fatal("decoded tuple artifact arity disagrees with fresh compilation")
		}
		for j := 0; j <= tgot.Tuple.Arity(); j++ {
			if !machine.StructurallyEqual(tfresh.Tuple.Segment(j).DFA(), tgot.Tuple.Segment(j).DFA()) {
				t.Fatalf("decoded tuple segment %d not equivalent to fresh compilation", j)
			}
		}
	})
}
