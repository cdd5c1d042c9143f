package seqfuzz

// Seeds returns the curated seed inputs FuzzAPISequence starts from: one
// short sequence per op kind (so the fuzzer begins with every vocabulary
// entry reachable instead of having to discover kind bytes by mutation),
// plus longer scripted interleavings of the scenarios the production stack
// is actually nervous about — rollout churn across a restart, eviction
// under canary traffic, failover after a shard kill, extraction from the
// historical tokenizer-crasher pages, and one key written past the
// registry's record bound on both sides of a restart. The committed corpus under
// testdata/fuzz/FuzzAPISequence mirrors these (see TestSeedCorpusCommitted).
func Seeds() [][]byte {
	var seeds [][]byte
	// One minimal sequence per op kind. Mutating ops are prefixed with the
	// put that gives them something to act on.
	put := Op{Kind: OpPut, A: 0, B: 0, C: 0}
	for k := OpKind(0); k < opCount; k++ {
		seeds = append(seeds, EncodeOps([]Op{put, {Kind: k, A: 0, B: 1, C: 1}}))
	}
	scripted := [][]Op{
		// Full rollout lifecycle with a restart in the middle of the canary
		// window: put → canary → restart → traffic → promote → rollback.
		{
			{Kind: OpPut, A: 0, B: 0, C: 0},
			{Kind: OpCanaryPut, A: 0, B: 1, C: 2},
			{Kind: OpRestart, A: 0, B: 0, C: 2},
			{Kind: OpExtractBatch, A: 0, B: 0, C: 2},
			{Kind: OpPromote, A: 0, B: 0, C: 2},
			{Kind: OpRollback, A: 0, B: 0, C: 0},
			{Kind: OpExtract, A: 0, B: 0, C: 0},
		},
		// Delete/resurrect with version monotonicity across a restart.
		{
			{Kind: OpPut, A: 1, B: 0, C: 0},
			{Kind: OpDelete, A: 1, B: 0, C: 0},
			{Kind: OpRestart, A: 1, B: 0, C: 0},
			{Kind: OpPut, A: 1, B: 2, C: 0},
			{Kind: OpExtractStream, A: 1, B: 0, C: 0},
		},
		// Cache eviction under canary traffic, then a restart that reloads
		// from the disk tier.
		{
			{Kind: OpPut, A: 2, B: 0, C: 1},
			{Kind: OpCanaryPut, A: 2, B: 1, C: 1},
			{Kind: OpCacheEvict, A: 2, B: 0, C: 1},
			{Kind: OpExtractBatch, A: 2, B: 0, C: 1},
			{Kind: OpRestart, A: 2, B: 0, C: 1},
			{Kind: OpExtractBatch, A: 2, B: 0, C: 1},
		},
		// Cluster: register on all shards, kill one, keep extracting through
		// failover; a put attempt after the kill reinterprets as an extract.
		{
			{Kind: OpClusterPut, A: 0, B: 0, C: 0},
			{Kind: OpClusterPut, A: 1, B: 1, C: 2},
			{Kind: OpClusterExtract, A: 0, B: 0, C: 0},
			{Kind: OpShardKill, A: 0, B: 0, C: 0},
			{Kind: OpClusterExtract, A: 1, B: 0, C: 2},
			{Kind: OpClusterPut, A: 2, B: 0, C: 1},
		},
		// Historical htmltok crashers as live pages through every extraction
		// surface (docs 5 and 6 in the pool).
		{
			{Kind: OpPut, A: 0, B: 0, C: 5},
			{Kind: OpExtract, A: 0, B: 0, C: 5},
			{Kind: OpExtractStream, A: 0, B: 0, C: 6},
			{Kind: OpExtractBatch, A: 0, B: 0, C: 6},
			{Kind: OpCompileEager, A: 0, B: 0, C: 5},
			{Kind: OpCompileStream, A: 0, B: 0, C: 6},
		},
		// Codec round trips over every variant, including corruption.
		{
			{Kind: OpCodecRoundTrip, A: 0, B: 0, C: 0},
			{Kind: OpCodecRoundTrip, A: 7, B: 1, C: 1},
			{Kind: OpCodecRoundTrip, A: 13, B: 2, C: 2},
			{Kind: OpCodecRoundTrip, A: 31, B: 0, C: 4},
		},
		// K-ary spanner vs the naive oracle: every pooled tuple expression
		// over the record table (doc 7) and a search-form page, direct and
		// through the artifact round trip (odd A).
		{
			{Kind: OpTupleSpanner, A: 0, B: 0, C: 7},
			{Kind: OpTupleSpanner, A: 1, B: 1, C: 7},
			{Kind: OpTupleSpanner, A: 0, B: 2, C: 0},
			{Kind: OpTupleSpanner, A: 1, B: 2, C: 1},
			{Kind: OpTupleSpanner, A: 1, B: 0, C: 4},
		},
		// Malformed payloads must bounce off every mutation path without
		// perturbing registry state.
		{
			{Kind: OpPut, A: 0, B: 3, C: 0},
			{Kind: OpPut, A: 0, B: 0, C: 0},
			{Kind: OpCanaryPut, A: 0, B: 4, C: 0},
			{Kind: OpPut, A: 0, B: 4, C: 0},
			{Kind: OpExtract, A: 0, B: 0, C: 0},
		},
		// Past the registry's bound of eight records per envelope file: ten
		// writes of every kind to one key (the ninth rewrites the file), a
		// restart that restores the newest record, eight more writes (the
		// first rewrites, the rest append up to the bound) and a second
		// restart that restores from a full file.
		{
			{Kind: OpPut, A: 2, B: 0, C: 0},
			{Kind: OpPut, A: 2, B: 1, C: 1},
			{Kind: OpCanaryPut, A: 2, B: 2, C: 0},
			{Kind: OpPromote, A: 2, B: 0, C: 1},
			{Kind: OpRollback, A: 2, B: 0, C: 0},
			{Kind: OpPut, A: 2, B: 2, C: 2},
			{Kind: OpDelete, A: 2, B: 0, C: 0},
			{Kind: OpPut, A: 2, B: 0, C: 1},
			{Kind: OpPut, A: 2, B: 1, C: 0},
			{Kind: OpCanaryPut, A: 2, B: 0, C: 2},
			{Kind: OpExtractBatch, A: 2, B: 0, C: 1},
			{Kind: OpRestart, A: 2, B: 0, C: 0},
			{Kind: OpPromote, A: 2, B: 0, C: 0},
			{Kind: OpPut, A: 2, B: 2, C: 1},
			{Kind: OpCanaryPut, A: 2, B: 1, C: 2},
			{Kind: OpRollback, A: 2, B: 0, C: 0},
			{Kind: OpPut, A: 2, B: 0, C: 0},
			{Kind: OpExtractStream, A: 2, B: 0, C: 2},
			{Kind: OpCanaryPut, A: 2, B: 2, C: 1},
			{Kind: OpPromote, A: 2, B: 0, C: 2},
			{Kind: OpPut, A: 2, B: 1, C: 0},
			{Kind: OpRestart, A: 2, B: 0, C: 1},
			{Kind: OpExtractBatch, A: 2, B: 0, C: 0},
		},
	}
	for _, ops := range scripted {
		seeds = append(seeds, EncodeOps(ops))
	}
	return seeds
}
