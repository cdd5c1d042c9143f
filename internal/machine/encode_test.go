package machine

import (
	"errors"
	"testing"

	"resilex/internal/codec"
	"resilex/internal/rx"
	"resilex/internal/symtab"
)

// codecEnv compiles src over {p,q,r} into its minimal DFA.
func codecEnv(t *testing.T, src string) (*DFA, []symtab.Symbol) {
	t.Helper()
	tab := symtab.NewTable()
	sigma := symtab.NewAlphabet(tab.InternAll("p", "q", "r")...)
	ast, err := rx.Parse(src, tab, sigma)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	n, err := Compile(ast, sigma, Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	d, err := Determinize(n, Options{})
	if err != nil {
		t.Fatalf("determinize %q: %v", src, err)
	}
	return Minimize(d), sigma.Symbols()
}

func TestDFACodecRoundTrip(t *testing.T) {
	for _, src := range equivCases {
		src := src
		t.Run(src, func(t *testing.T) {
			d, syms := codecEnv(t, src)
			got, err := DecodeDFA(d.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !StructurallyEqual(d, got) {
				t.Fatal("decoded DFA differs structurally")
			}
			for _, w := range enumWords(syms, 5) {
				if d.Accepts(w) != got.Accepts(w) {
					t.Fatalf("decoded DFA disagrees on %v", w)
				}
			}
		})
	}
}

func TestAutomatonDecodeRejectsCorruption(t *testing.T) {
	d, _ := codecEnv(t, "(p q | q p)* r")
	cases := []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"dfa", d.Encode(), func(b []byte) error { _, err := DecodeDFA(b); return err }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(nil); !errors.Is(err, codec.ErrMalformedInput) {
				t.Errorf("nil blob: err = %v", err)
			}
			if err := c.decode(c.blob[:len(c.blob)/2]); !errors.Is(err, codec.ErrMalformedInput) {
				t.Errorf("truncated blob: err = %v", err)
			}
			for i := range c.blob {
				mut := append([]byte(nil), c.blob...)
				mut[i] ^= 0x10
				if err := c.decode(mut); !errors.Is(err, codec.ErrMalformedInput) {
					t.Fatalf("bit flip at %d: err = %v, want ErrMalformedInput", i, err)
				}
			}
			// Wrong-kind decode: an intact frame of another format (here the
			// compiled-artifact magic) is not an automaton.
			if err := c.decode(codec.Seal("RXAR", automatonVersion, c.blob)); !errors.Is(err, codec.ErrMalformedInput) {
				t.Errorf("foreign-magic frame: err = %v", err)
			}
		})
	}
}
