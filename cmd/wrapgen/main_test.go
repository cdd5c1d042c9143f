package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestFlagsFollowTokenizerCase: the tokenizer upper-cases tag names and
// lower-cases attribute keys, so a flag spelled in the other case must
// still name the tag or key. Before the flags were normalized, -skip br
// saved "br", which skips nothing, and left BR in Σ.
func TestFlagsFollowTokenizerCase(t *testing.T) {
	dir := t.TempDir()
	var pages []string
	for i, html := range []string{
		`<p><h1>Shop</h1><br><form><input type="image"><input type="text" data-target></form>`,
		`<div><h1>Shop</h1><p>deal!</p><br><form><input type="image"><br><input type="text" data-target></form></div>`,
	} {
		p := filepath.Join(dir, "s"+string(rune('1'+i))+".html")
		if err := os.WriteFile(p, []byte(html), 0o644); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	for _, c := range []struct {
		flags     []string
		skip      []string
		attrKeys  []string
		in, notIn []string // Σ names
	}{
		{flags: nil, in: []string{"BR", "INPUT"}},
		{flags: []string{"-skip", "br"}, skip: []string{"BR"}, in: []string{"INPUT"}, notIn: []string{"BR", "br"}},
		{flags: []string{"-extra", "span,/span"}, in: []string{"SPAN", "/SPAN"}, notIn: []string{"span"}},
		{
			flags:    []string{"-attrs", "TYPE", "-extra", "input[type=checkbox]"},
			attrKeys: []string{"type"},
			in:       []string{"INPUT[type=text]", "INPUT[type=checkbox]"},
			notIn:    []string{"INPUT", "input[type=checkbox]"},
		},
	} {
		out := filepath.Join(dir, "w.json")
		if err := run(append(append([]string{"-o", out}, c.flags...), pages...), io.Discard); err != nil {
			t.Fatalf("%v: %v", c.flags, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var w struct {
			Sigma    []string `json:"sigma"`
			Skip     []string `json:"skip"`
			AttrKeys []string `json:"attrKeys"`
		}
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Skip, c.skip) || !reflect.DeepEqual(w.AttrKeys, c.attrKeys) {
			t.Errorf("%v: saved skip %q, attrKeys %q; want %q, %q", c.flags, w.Skip, w.AttrKeys, c.skip, c.attrKeys)
		}
		for _, name := range c.in {
			if !slices.Contains(w.Sigma, name) {
				t.Errorf("%v: Σ %q lacks %q", c.flags, w.Sigma, name)
			}
		}
		for _, name := range c.notIn {
			if slices.Contains(w.Sigma, name) {
				t.Errorf("%v: Σ %q holds %q", c.flags, w.Sigma, name)
			}
		}
	}
}
