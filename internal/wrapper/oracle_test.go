package wrapper

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/spanner"
	"resilex/internal/symtab"
)

// TestRoutesMatchOracle ties every serving route to an oracle that shares
// no code with the resolver: Mapper.Map, which interns, over a copy of the
// wrapper's table, then extract.Matcher for the single-pivot wrapper and
// spanner.Program for the tuple wrapper. The routes are ExtractContext, the
// stream route at three chunk sizes, and the tuple wrapper's Extract and
// ExtractAll. Each tokenizer configuration trains both kinds, and each
// table also holds names outside Σ, as a table shared with a refreshed
// wrapper does.
func TestRoutesMatchOracle(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"skip", Config{Skip: []string{"BR", "A", "TH"}}},
		{"text-dropend", Config{KeepText: true, DropEndTags: true}},
		{"attrkeys", Config{AttrKeys: []string{"type"}, Skip: []string{"BR"}}},
	}
	pages := []string{
		fig1Top, fig1Bottom, fig1Novel, fig1Future,
		"<blink>" + fig1Top + "</blink>",
		strings.Replace(fig1Bottom, "<tr><td><form", "<tr><td><span>x</span><form", 1),
		strings.Replace(fig1Novel, `type="radio"`, `type="checkbox"`, 1),
		tupleSample1, tupleSample2, tupleLive, recordsPage,
		strings.Replace(recordsPage, "<td>nut M4</td>", "<td><span>nut</span> M4</td>", 1),
	}
	ctx := context.Background()
	for _, c := range configs {
		w, err := Train([]Sample{
			{HTML: fig1Top, Target: TargetMarker()},
			{HTML: fig1Bottom, Target: TargetMarker()},
		}, c.cfg)
		if err != nil {
			t.Fatalf("%s: Train: %v", c.name, err)
		}
		tw, err := TrainTuple([]Sample{{HTML: tupleSample1}, {HTML: tupleSample2}}, c.cfg)
		if err != nil {
			t.Fatalf("%s: TrainTuple: %v", c.name, err)
		}
		for _, tab := range []*symtab.Table{w.Table(), tw.tab} {
			tab.InternAll("BLINK", "/BLINK", "SPAN", "/SPAN", "INPUT[type=checkbox]")
		}
		se, err := w.Stream()
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.Expr().Compile()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := spanner.Compile(tw.Tuple(), machine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hits, records := 0, 0
		for i, page := range pages {
			doc := oracleMap(w.Table(), c.cfg, page)
			want, wantErr := Region{}, ErrNotExtracted
			if pos, ok := m.Find(doc.Syms); ok {
				want, wantErr = regionOf(doc, pos), nil
				hits++
			}
			same := func(route string, got Region, err error) {
				t.Helper()
				if got != want || !errors.Is(err, wantErr) {
					t.Errorf("%s: page %d: %s = %+v, %v; oracle %+v, %v", c.name, i, route, got, err, want, wantErr)
				}
			}
			got, err := w.ExtractContext(ctx, page)
			same("ExtractContext", got, err)
			for _, chunk := range []int{1, 7, 1 << 20} {
				got, err := se.ExtractReader(ctx, &chunkReader{data: []byte(page), chunk: chunk})
				same("ExtractReader", got, err)
			}

			tdoc := oracleMap(tw.tab, c.cfg, page)
			ms, err := prog.Run(tdoc.Syms)
			if err != nil {
				t.Fatal(err)
			}
			vecs, err := ms.All()
			if err != nil {
				t.Fatal(err)
			}
			wantAll := [][]Region{}
			for _, vec := range vecs {
				rec := make([]Region, len(vec))
				for j, pos := range vec {
					rec[j] = regionOf(tdoc, pos)
				}
				wantAll = append(wantAll, rec)
			}
			records += len(wantAll)
			if all, err := tw.ExtractAll(page); err != nil || !reflect.DeepEqual(all, wantAll) {
				t.Errorf("%s: page %d: ExtractAll = %+v, %v; oracle %+v", c.name, i, all, err, wantAll)
			}
			vec, ok, vecErr := tw.Tuple().Extract(tdoc.Syms)
			var wantVec []Region
			for _, pos := range vec {
				wantVec = append(wantVec, regionOf(tdoc, pos))
			}
			regions, err := tw.Extract(page)
			if vecErr != nil && err == nil ||
				vecErr == nil && !ok && !errors.Is(err, ErrNotExtracted) ||
				ok && (err != nil || !reflect.DeepEqual(regions, wantVec)) {
				t.Errorf("%s: page %d: tuple Extract = %+v, %v; oracle %+v, ok=%v, %v", c.name, i, regions, err, wantVec, ok, vecErr)
			}
		}
		if hits == 0 || records == 0 {
			t.Errorf("%s: the oracle extracted %d regions and %d records; the differential checks nothing", c.name, hits, records)
		}
	}
}

// oracleMap tokenizes page as training does, with a Mapper over a copy of
// tab: every name outside the wrapper's Σ keeps or gets a table id, where
// the resolver answers None.
func oracleMap(tab *symtab.Table, cfg Config, page string) htmltok.Document {
	return cfg.mapper(tab.Clone()).Map(page)
}

func regionOf(doc htmltok.Document, pos int) Region {
	return Region{TokenIndex: pos, Span: doc.SpanOf(pos), Source: doc.Source(pos)}
}
