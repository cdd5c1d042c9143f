// Command wrapgen induces a resilient extraction wrapper from sample HTML
// pages. In each sample the target element carries a data-target attribute:
//
//	<input type="text" name="q" data-target>
//
// The tool tokenizes the samples, induces an unambiguous extraction
// expression with the merging heuristic, maximizes it for resilience, and
// writes the wrapper as JSON.
//
// Usage:
//
//	wrapgen -o wrapper.json [-skip BR,HR] [-attrs type] [-extra DIV,/DIV] \
//	        [-no-maximize] sample1.html sample2.html ...
//
// The tokenizer upper-cases tag names and lower-cases attribute keys, so
// the flags do too: -skip br and -extra div name the BR and DIV tags, and
// -attrs TYPE the type attribute. In an attribute-refined -extra symbol
// such as INPUT[type=checkbox] only the tag name is upper-cased.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"resilex"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "usage: wrapgen [flags] sample.html ...")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrapgen:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("no sample pages")

// run trains the wrapper the command line describes, writes it, and
// reports it on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wrapgen", flag.ExitOnError)
	out := fs.String("o", "wrapper.json", "output file for the wrapper JSON")
	skip := fs.String("skip", "", "comma-separated tags to drop during tokenization (e.g. BR,HR)")
	attrs := fs.String("attrs", "", "comma-separated attribute keys refining tag symbols (e.g. type)")
	extra := fs.String("extra", "", "comma-separated extra tags to include in the alphabet")
	noMax := fs.Bool("no-maximize", false, "keep the merged expression without maximizing")
	budget := fs.Int("budget", 0, "state budget for automaton constructions (0 = default)")
	tuple := fs.Bool("tuple", false, "train a multi-slot tuple wrapper (every data-target in a sample is one slot)")
	dtdPath := fs.String("dtd", "", "DTD file whose declared elements extend the wrapper's alphabet")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the flag's own message
	files := fs.Args()
	if len(files) == 0 {
		return errUsage
	}
	var samples []resilex.Sample
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		samples = append(samples, resilex.Sample{HTML: string(data), Target: resilex.TargetMarker()})
	}
	extraTags := split(*extra, upperTag)
	if *dtdPath != "" {
		data, err := os.ReadFile(*dtdPath)
		if err != nil {
			return err
		}
		dtd, err := resilex.ParseDTD(string(data))
		if err != nil {
			return err
		}
		extraTags = append(extraTags, dtd.Vocabulary()...)
	}
	cfg := resilex.Config{
		Skip:         split(*skip, strings.ToUpper),
		AttrKeys:     split(*attrs, strings.ToLower),
		ExtraTags:    extraTags,
		SkipMaximize: *noMax,
		Options:      resilex.Options{MaxStates: *budget},
	}
	var data []byte
	var strategy, expr string
	if *tuple {
		w, err := resilex.TrainTuple(samples, cfg)
		if err != nil {
			return err
		}
		data, err = json.MarshalIndent(w, "", "  ")
		if err != nil {
			return err
		}
		strategy = fmt.Sprintf("tuple (%d slots)", w.Arity())
		expr = w.String()
	} else {
		w, err := resilex.Train(samples, cfg)
		if err != nil {
			return err
		}
		data, err = json.MarshalIndent(w, "", "  ")
		if err != nil {
			return err
		}
		strategy = w.Strategy()
		expr = w.String()
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrapper written to %s\n", *out)
	fmt.Fprintf(stdout, "strategy:   %s\n", strategy)
	fmt.Fprintf(stdout, "expression: %s\n", expr)
	return nil
}

// split parses a comma-separated flag value, normalizing each item.
func split(s string, norm func(string) string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, norm(p))
		}
	}
	return out
}

// upperTag upper-cases a symbol's tag name, as the tokenizer emits it,
// leaving an attribute refinement ("INPUT[type=text]") as written.
func upperTag(s string) string {
	i := strings.IndexByte(s, '[')
	if i < 0 {
		i = len(s)
	}
	return strings.ToUpper(s[:i]) + s[i:]
}
