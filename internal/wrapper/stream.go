package wrapper

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"resilex/internal/extract"
	"resilex/internal/htmltok"
	"resilex/internal/machine"
	"resilex/internal/obs"
)

// streamChunkSize is the read-buffer size of a streaming extraction session:
// large enough to amortize Read syscalls, small enough that pooled sessions
// stay cheap.
const streamChunkSize = 32 << 10

// streamBox lazily compiles the wrapper's one-pass streaming matcher, shared
// by all copies of the wrapper.
type streamBox struct {
	once sync.Once
	se   *StreamExtractor
	err  error
}

// Stream returns the wrapper's streaming extractor, compiling the one-pass
// matcher (extract.StreamMatcher) on first use and caching it for the
// wrapper's lifetime. The compile does not depend on the context the wrapper
// was loaded under; its only error is a Σ symbol id past the dense
// symbol-index bound.
func (w *Wrapper) Stream() (*StreamExtractor, error) {
	w.sbox.once.Do(func() {
		sm, err := w.expr.CompileStream()
		if err != nil {
			w.sbox.err = fmt.Errorf("wrapper: stream: %w", err)
			return
		}
		w.sbox.se = &StreamExtractor{w: w, sm: sm}
	})
	return w.sbox.se, w.sbox.err
}

// StreamRegion is a streaming extraction result. Source aliases a pooled
// session buffer and is valid only for the duration of the ExtractReaderTo
// callback — copy it to keep it.
type StreamRegion struct {
	TokenIndex int
	Span       htmltok.Span
	Source     []byte
}

// StreamExtractor extracts from chunked document streams in one forward
// pass: bytes flow through the resumable tokenizer (htmltok.Streamer)
// directly into the one-pass product matcher, so split points resolve
// online and memory stays O(1) beyond the match region — the page is never
// materialized. Safe for concurrent use; per-request state is pooled, and
// the warm ExtractReaderTo path performs no allocations (ARCHITECTURE.md §8
// documents the buffer-ownership rules that keep it that way).
type StreamExtractor struct {
	w          *Wrapper
	sm         *extract.StreamMatcher
	pool       sync.Pool // *streamSession
	poolHits   atomic.Int64
	poolMisses atomic.Int64
}

// capture is one candidate's retained evidence: the token position the
// candidate was born at, its byte span in the stream, and its source bytes
// in the session's capture arena.
type capture struct {
	pos    int
	span   htmltok.Span
	off, n int
}

// streamSession is the per-extraction state: tokenizer, matcher run, and
// the capture arena for candidate source regions. Symbols come from the
// wrapper's resolver, which every session shares. All buffers are reused
// across extractions via the extractor's pool.
type streamSession struct {
	se  *StreamExtractor
	st  *htmltok.Streamer
	res *htmltok.Resolver
	run *extract.StreamRun
	pos int // token positions consumed (kept tokens only)

	caps       []capture
	src        []byte // capture arena: source bytes of live candidates
	srcScratch []byte // prune-compaction double buffer
	live       []int32

	chunks0, carries0 int64 // streamer stats at session start (Stats is cumulative)
	bytes             int64
	buf               [streamChunkSize]byte
}

func (se *StreamExtractor) get() *streamSession {
	var s *streamSession
	if v := se.pool.Get(); v != nil {
		s = v.(*streamSession)
		se.poolHits.Add(1)
	} else {
		s = &streamSession{se: se, res: se.w.res}
		s.st = htmltok.NewStreamerPtr(s.onToken)
		s.st.ParseAttrs = len(se.w.cfg.AttrKeys) > 0
		se.poolMisses.Add(1)
	}
	s.st.Reset()
	s.chunks0, s.carries0 = s.st.Stats()
	s.run = se.sm.Get(extract.FindLeftmost)
	s.pos = 0
	s.caps = s.caps[:0]
	s.src = s.src[:0]
	s.bytes = 0
	return s
}

func (se *StreamExtractor) put(s *streamSession) {
	se.sm.Put(s.run)
	s.run = nil
	se.pool.Put(s)
}

// onToken is the fused tokenizer→matcher step: resolve the raw token to a
// symbol (names outside Σ become None, killing the candidates whose suffix
// spans them), feed the matcher, and capture the token's bytes when it is
// born as a still-viable candidate. rt is the streamer's own token, valid
// only during the call.
func (s *streamSession) onToken(rt *htmltok.RawToken) {
	sym, ok := s.res.Sym(rt)
	if !ok {
		return
	}
	j := s.pos
	s.pos++
	if !s.run.Feed(sym) {
		return
	}
	off := len(s.src)
	s.src = append(s.src, rt.Bytes...)
	s.caps = append(s.caps, capture{
		pos:  j,
		span: htmltok.Span{Start: rt.Start, End: rt.End},
		off:  off,
		n:    len(rt.Bytes),
	})
	if len(s.caps) > 8 {
		s.prune()
	}
}

// prune drops captures whose candidate is no longer live. At most one
// candidate per suffix-automaton state can still win, so the capture arena
// is bounded by |Q₂| after every prune — this is what keeps memory O(1)
// beyond the match region on adversarial pages that keep spawning
// candidates.
func (s *streamSession) prune() {
	s.live = s.run.Live(s.live[:0])
	if len(s.caps) <= 2*len(s.live) {
		return
	}
	out := s.srcScratch[:0]
	w := 0
	for _, c := range s.caps {
		alive := false
		for _, p := range s.live {
			if int(p) == c.pos {
				alive = true
				break
			}
		}
		if !alive {
			continue
		}
		no := len(out)
		out = append(out, s.src[c.off:c.off+c.n]...)
		c.off = no
		s.caps[w] = c
		w++
	}
	s.caps = s.caps[:w]
	s.srcScratch = s.src
	s.src = out
}

// ExtractReaderTo streams the page from r through the wrapper and hands the
// extracted region to fn. The region's Source bytes are borrowed from a
// pooled buffer: they are valid only during fn. The warm path (pooled
// session, warmed counters) performs zero allocations; metrics are recorded
// against the observer in ctx (see DESIGN.md §6, extract_stream_*).
func (se *StreamExtractor) ExtractReaderTo(ctx context.Context, r io.Reader, fn func(StreamRegion) error) error {
	if err := (machine.Options{Ctx: ctx}).Err(); err != nil {
		return fmt.Errorf("wrapper: stream extract: %w", err)
	}
	o := obs.FromContext(ctx)
	s := se.get()
	defer se.put(s)
	for {
		n, err := r.Read(s.buf[:])
		if n > 0 {
			s.bytes += int64(n)
			s.st.Feed(s.buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("wrapper: stream extract: %w", err)
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("wrapper: stream extract: %w: %w", machine.ErrDeadline, cerr)
			}
		}
	}
	s.st.Close()
	chunks, carries := s.st.Stats()
	o.Counter("extract_stream_runs_total").Add(1)
	o.Counter("extract_stream_chunks_total").Add(chunks - s.chunks0)
	o.Counter("extract_stream_carry_total").Add(carries - s.carries0)
	o.Counter("extract_stream_bytes_total").Add(s.bytes)
	hits, misses := se.poolStatsDelta()
	o.Counter("extract_stream_pool_hits_total").Add(hits)
	o.Counter("extract_stream_pool_misses_total").Add(misses)
	pos, ok := s.run.Find()
	if !ok {
		return ErrNotExtracted
	}
	for i := range s.caps {
		if s.caps[i].pos == pos {
			c := s.caps[i]
			return fn(StreamRegion{
				TokenIndex: pos,
				Span:       c.span,
				Source:     s.src[c.off : c.off+c.n],
			})
		}
	}
	// Unreachable if capture pruning is correct: the winner is always live.
	return fmt.Errorf("wrapper: stream extract: winning position %d has no capture", pos)
}

// ExtractReader is ExtractReaderTo returning an owned Region (Source is
// copied); the convenience surface mirroring Extract.
func (se *StreamExtractor) ExtractReader(ctx context.Context, r io.Reader) (Region, error) {
	var reg Region
	err := se.ExtractReaderTo(ctx, r, func(sr StreamRegion) error {
		reg = Region{TokenIndex: sr.TokenIndex, Span: sr.Span, Source: string(sr.Source)}
		return nil
	})
	return reg, err
}

// poolStatsDelta reports and resets the extractor's pool hit/miss counts,
// so each extraction flushes its delta into the context's metrics registry.
func (se *StreamExtractor) poolStatsDelta() (hits, misses int64) {
	return se.poolHits.Swap(0), se.poolMisses.Swap(0)
}
