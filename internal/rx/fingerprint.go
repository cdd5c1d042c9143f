package rx

import (
	"sort"
	"strconv"
)

// Fingerprint returns a stable, total serialization of the AST: two nodes
// have equal fingerprints iff they are structurally Equal after
// canonicalization of union operand order. Used as the state identity in
// the derivative-based DFA construction, where termination rests on
// derivatives being finite modulo associativity/commutativity/idempotence
// of union (Brzozowski's theorem) — properties the constructors plus this
// canonical ordering provide.
func Fingerprint(n *Node) string {
	return string(appendFingerprint(nil, Canonicalize(n)))
}

func appendFingerprint(b []byte, n *Node) []byte {
	b = strconv.AppendInt(b, int64(n.Op), 10)
	if n.Op == OpClass {
		b = append(b, '{')
		for i := 0; i < n.Class.Len(); i++ {
			b = strconv.AppendInt(b, int64(n.Class.At(i)), 10)
			b = append(b, ',')
		}
		b = append(b, '}')
	}
	if len(n.Subs) > 0 {
		b = append(b, '(')
		for _, s := range n.Subs {
			b = appendFingerprint(b, s)
			b = append(b, ';')
		}
		b = append(b, ')')
	}
	return b
}

// Canonicalize returns an AST equal to n up to reordering of union
// operands, with unions sorted by fingerprint. Shared subtrees may be
// returned unchanged.
func Canonicalize(n *Node) *Node {
	subs := make([]*Node, len(n.Subs))
	changed := false
	for i, s := range n.Subs {
		subs[i] = Canonicalize(s)
		if subs[i] != s {
			changed = true
		}
	}
	if n.Op == OpUnion {
		keys := make([]string, len(subs))
		var b []byte
		for i, s := range subs {
			b = appendFingerprint(b[:0], s)
			keys[i] = string(b)
		}
		if !sort.StringsAreSorted(keys) {
			idx := make([]int, len(subs))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
			sorted := make([]*Node, len(subs))
			for i, j := range idx {
				sorted[i] = subs[j]
			}
			subs = sorted
			changed = true
		}
	}
	if !changed {
		return n
	}
	out := &Node{Op: n.Op, Class: n.Class, Subs: subs}
	return out
}
