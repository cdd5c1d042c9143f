// Package faultinject is the deterministic fault-injection harness for the
// extraction runtime. Where internal/perturb models the paper's Section 3
// change model (benign page evolution), faultinject models the operational
// failure modes a deployed robot meets: truncated transfers, malformed
// markup, starvation-level state budgets, and expired deadlines. Every
// injector is pure and seeded, so a failing schedule replays exactly.
//
// Each injector provokes one typed outcome, never a panic:
//
//	Truncate / GarbleTags  → a page the wrapper no longer parses (ErrNoMatch),
//	                         per document in a served batch
//	StripMarker            → a drift page a refresh cannot mark (ErrNoTarget)
//	TinyBudget             → refresh failure wrapping machine.ErrBudget
//	ExpiredContext         → fail-fast errors wrapping machine.ErrDeadline
package faultinject

import (
	"context"
	"math/rand"
	"strings"

	"resilex/internal/machine"
)

// Truncate cuts the page after frac of its bytes (clamped to [0,1]) — the
// shape of an interrupted transfer. The cut lands mid-tag whenever the byte
// it falls on is inside one, which is the interesting case.
func Truncate(html string, frac float64) string {
	if frac <= 0 {
		return ""
	}
	if frac >= 1 {
		return html
	}
	return html[:int(float64(len(html))*frac)]
}

// TruncateAtTag cuts the page just before the n-th (0-based) occurrence of
// '<', deterministically landing the cut at a tag boundary.
func TruncateAtTag(html string, n int) string {
	at := 0
	for i := 0; i <= n; i++ {
		next := strings.IndexByte(html[at:], '<')
		if next < 0 {
			return html
		}
		at += next + 1
	}
	return html[:at-1]
}

// GarbleTags deletes the closing '>' of every k-th tag — markup a real
// tokenizer must survive without panicking. k <= 0 garbles every tag.
func GarbleTags(html string, k int) string {
	if k <= 0 {
		k = 1
	}
	var b strings.Builder
	b.Grow(len(html))
	tag := 0
	for i := 0; i < len(html); i++ {
		c := html[i]
		if c == '>' {
			tag++
			if tag%k == 0 {
				continue
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Shuffle returns a seeded byte-window shuffle of the page: windows of the
// given size are permuted, destroying structure while preserving content
// bytes. Deterministic in (html, seed, window).
func Shuffle(html string, seed int64, window int) string {
	if window <= 0 || window >= len(html) {
		return html
	}
	rng := rand.New(rand.NewSource(seed))
	chunks := make([]string, 0, len(html)/window+1)
	for i := 0; i < len(html); i += window {
		end := i + window
		if end > len(html) {
			end = len(html)
		}
		chunks = append(chunks, html[i:end])
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	return strings.Join(chunks, "")
}

// StripMarker removes every occurrence of the data-target training marker,
// turning a refreshable drift page into an unmarkable one.
func StripMarker(html string) string {
	html = strings.ReplaceAll(html, " data-target", "")
	return strings.ReplaceAll(html, "data-target", "")
}

// TinyBudget returns construction options with an n-state budget — small
// enough (n of a few) that any real induce/maximize pipeline exhausts it
// and surfaces machine.ErrBudget.
func TinyBudget(n int) machine.Options {
	return machine.Options{MaxStates: n}
}

// ExpiredContext returns an already-cancelled context: every deadline poll
// fails immediately, so construction and extraction must fail fast with an
// error wrapping machine.ErrDeadline. The CancelFunc has already been
// called; callers need not invoke it again.
func ExpiredContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
