package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"resilex/internal/machine"
)

// TestArtifactBytesGolden pins the .rxa bytes across commits: the SHA-256 of
// the encoder's output for a single-pivot and a k=2 tuple fixture must stay
// the committed value. TestArtifactEncodeDeterministic only compares
// re-encodes within one build; this is what keeps a disk cache written by
// one binary warm for the next, since both artifact formats are frozen.
func TestArtifactBytesGolden(t *testing.T) {
	single, err := CompileArtifact(htmlFixtures[0], htmlSigmaNames, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuple, err := CompileTupleArtifact("q* <p> q* <r> .*", []string{"p", "q", "r"}, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	singleBlob, err := EncodeArtifact(single)
	if err != nil {
		t.Fatal(err)
	}
	tupleBlob, err := EncodeTupleArtifact(tuple)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"single-pivot", singleBlob, "6f0947685ce84192eb5ea1f6a8f1bba30219917254df8c87efbcd621436a0330"},
		{"tuple k=2", tupleBlob, "b0024911406304a7945a4fcc8bc1f35d8283c992299accf11c21dcf89f740971"},
	} {
		sum := sha256.Sum256(c.blob)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s artifact: sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.blob))
		}
	}
}

// TestContentKeysGolden pins the content addresses across commits: Key and
// KeyTuple of TestArtifactBytesGolden's two fixtures, plus a single-pivot
// expression whose unions Canonicalize reorders, must stay the committed
// hex. The disk tier names each artifact file by its key, so a change to the
// fingerprint or to the hashed layout would silently re-address every disk
// cache, and a restarted server would recompile everything.
func TestContentKeysGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		key   func(string, []string) (string, error)
		src   string
		sigma []string
		want  string
	}{
		{"single-pivot", Key, htmlFixtures[0], htmlSigmaNames, "47b3951db27d4d58c652c39ce43cca9ab27127b66be38b99b0d6792a30b1ab06"},
		{"tuple k=2", KeyTuple, "q* <p> q* <r> .*", []string{"p", "q", "r"}, "7fd62193d0ea5c670e416096f409a1f5cb01595a52e6b7c61d88d7b0b1b74d6e"},
		{"unions", Key, "(q | p)* p (q | p | p q) <p> (r | q)*", []string{"r", "q", "p"}, "a0b432c91b14499d8dcbb82ae3c161e5195346e286ec8b5cda4768c4e46bb455"},
	} {
		got, err := c.key(c.src, c.sigma)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
