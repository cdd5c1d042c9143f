package wrapper

import (
	"context"
	"runtime"

	"resilex/internal/extract"
	"resilex/internal/machine"
	"resilex/internal/symtab"
)

// LoadCached is Load backed by the compiled-artifact cache: the expensive
// part of restoring a persisted wrapper — reparsing the expression and
// determinizing its components — is looked up by content address and
// compiled at most once per distinct expression, no matter how many
// concurrent requests carry it (see extract.TieredCache). The returned
// wrapper shares the cached symbol table, expression and matcher (all safe
// for concurrent use) and owns only its tokenizer configuration and the
// resolver frozen from it over the expression's Σ.
//
// A TieredCache with a disk tier makes restored wrappers survive process
// restarts; one without is memory only. A nil cache degrades to plain Load.
// Error classification matches Load: undecodable, wrong-version and
// wrong-kind payloads are ErrMalformedInput; budget and deadline exhaustion
// during a cold compile pass through wrapping machine.ErrBudget and
// machine.ErrDeadline.
func LoadCached(data []byte, opt machine.Options, cache *extract.TieredCache) (*Wrapper, error) {
	return LoadCachedCtx(context.Background(), data, opt, cache)
}

// LoadCachedCtx is LoadCached with the caller's context threaded through to
// the cache, so the lookup (tier, trace span) is recorded against the
// request that triggered it.
func LoadCachedCtx(ctx context.Context, data []byte, opt machine.Options, cache *extract.TieredCache) (*Wrapper, error) {
	p, err := decodePersisted(data, "")
	if err != nil {
		return nil, err
	}
	return p.single(ctx, opt, cache)
}

// LoadTupleCached is LoadTuple backed by the compiled-artifact cache, with
// LoadCached's sharing, nil-cache and error contracts; tuple artifacts are
// addressed by extract.KeyTuple, domain-separated from single-pivot keys.
func LoadTupleCached(data []byte, opt machine.Options, cache *extract.TieredCache) (*TupleWrapper, error) {
	return LoadTupleCachedCtx(context.Background(), data, opt, cache)
}

// LoadTupleCachedCtx is LoadTupleCached with the caller's context threaded
// through to the cache, mirroring LoadCachedCtx.
func LoadTupleCachedCtx(ctx context.Context, data []byte, opt machine.Options, cache *extract.TieredCache) (*TupleWrapper, error) {
	p, err := decodePersisted(data, kindTuple)
	if err != nil {
		return nil, err
	}
	return p.tuple(ctx, opt, cache)
}

// LoadAny restores a persisted wrapper of either kind — whichever its JSON
// names — through the cache (nil: plain compilation), decoding the payload
// once. Errors are classified as in LoadCached.
func LoadAny(ctx context.Context, data []byte, opt machine.Options, cache *extract.TieredCache) (Any, error) {
	p, err := decodePersisted(data, "", kindTuple)
	if err != nil {
		return nil, err
	}
	if p.Kind == kindTuple {
		tw, err := p.tuple(ctx, opt, cache)
		if err != nil {
			return nil, err
		}
		return tw, nil
	}
	w, err := p.single(ctx, opt, cache)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// LoadAll restores n persisted wrappers, each of either kind, with LoadAny
// on runtime.GOMAXPROCS(0) workers, and returns one wrapper or error per
// payload, in input order. payload(i) supplies the i-th payload on the
// worker that loads it, so reading or decoding whatever holds the payloads
// runs on the workers too; a nil payload is an empty slot, with neither a
// wrapper nor an error. It is the loader behind every boot-time load: a
// deploy-time fleet file and a server's registry restore.
func LoadAll(ctx context.Context, n int, payload func(i int) []byte, opt machine.Options, cache *extract.TieredCache) ([]Any, []error) {
	ws, errs := make([]Any, n), make([]error, n)
	forEach(n, runtime.GOMAXPROCS(0), func(i int) {
		if p := payload(i); p != nil {
			ws[i], errs[i] = LoadAny(ctx, p, opt, cache)
		}
	})
	return ws, errs
}

// single restores the envelope as a single-pivot wrapper.
func (p persisted) single(ctx context.Context, opt machine.Options, cache *extract.TieredCache) (*Wrapper, error) {
	var comp *extract.Compiled
	var err error
	if cache != nil {
		comp, err = cache.LoadCtx(ctx, p.Expr, p.Sigma, opt)
	} else {
		comp, err = extract.CompileArtifact(p.Expr, p.Sigma, opt)
	}
	if err != nil {
		return nil, reparseError(err)
	}
	var strategy string
	if p.Strategy != nil {
		strategy = *p.Strategy
	}
	return newWrapper(comp.Tab, comp.Expr, comp.Matcher, strategy, p.config(opt), nil, symtab.Alphabet{})
}

// tuple restores the envelope as a k-ary tuple wrapper.
func (p persisted) tuple(ctx context.Context, opt machine.Options, cache *extract.TieredCache) (*TupleWrapper, error) {
	var comp *extract.CompiledTuple
	var err error
	if cache != nil {
		comp, err = cache.LoadTupleCtx(ctx, p.Expr, p.Sigma, opt)
	} else {
		comp, err = extract.CompileTupleArtifact(p.Expr, p.Sigma, opt)
	}
	if err != nil {
		return nil, reparseError(err)
	}
	return newTupleWrapper(comp.Tab, comp.Tuple, p.config(opt), nil, symtab.Alphabet{})
}
