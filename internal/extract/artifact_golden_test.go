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
