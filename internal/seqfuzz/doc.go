// Package seqfuzz is the API-sequence differential fuzz harness: a
// deterministic interpreter that decodes fuzz bytes into a bounded sequence
// of public-API operations — compile (eager/stream), wrapper rollout
// mutations (put, canary-put, promote, rollback, delete), extraction
// (materialized, streaming, batch), cache eviction, codec encode→decode
// round trips, a server restart from disk, and a shard kill in an
// in-process cluster — and cross-checks every live equivalent surface
// against one reference model after every step.
//
// The reference model is deliberately the dumbest correct implementation in
// the repository: the eager two-scan Matcher over wrappers restored with
// plain wrapper.Load (no cache, no artifacts, no streaming), plus an
// in-memory map mirroring the versioned registry's per-key state machine.
// Everything the production stack layered on top of that — content-addressed
// caching, disk artifacts, the one-pass streaming matcher, canary routing,
// replication, restart recovery — is an optimization that claims extensional
// equivalence; this harness is where those claims are all checked against
// each other under *interleavings* (evict during singleflight, restart
// mid-canary, promote after restart, kill a shard under routed traffic) that
// no single-layer test reaches.
//
// Three invariant families are enforced after each step:
//
//   - extraction agreement: the materialized, streaming, and batch surfaces
//     (and the routed cluster surface, when live) return the same region —
//     token index, byte span, source bytes — the reference matcher does;
//   - error-taxonomy agreement: when a surface fails, it fails in the same
//     class (ok / no_match / malformed / budget / deadline) the model
//     predicts, never with an untyped error and never with a panic;
//   - registry agreement: the server's versioned per-key state (monotone
//     counter, active/canary/prior versions, tombstone flag, last rollout
//     outcome) equals the model's after every mutation and across restarts.
//
// The interpreter is deterministic by construction — fixed operand pools,
// stride-1 canary routing, no clocks, no randomness — so every crasher the
// fuzzer finds replays exactly from its input bytes. ARCHITECTURE.md §9
// documents the op vocabulary and the minimization/triage workflow.
package seqfuzz
