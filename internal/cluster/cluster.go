// Package cluster turns the single-node serving path into a shardable
// fleet: a consistent-hash ring places wrapper keys on shard nodes with a
// configurable replication factor, a membership layer polls each shard's
// /healthz behind a circuit breaker and marks nodes up/down with
// observable transitions, and a router front-end proxies
// extraction and wrapper mutations to the owning shard — failing over to
// the next replica on error or timeout, optionally hedging tail requests,
// and fanning every wrapper write (put, delete, canary, promote, rollback)
// out to every owner over a checksummed codec frame so a node loss keeps
// every key servable.
//
// The pieces compose without a coordination service: placement is a pure
// function of the peer list (every router instance computes identical
// owners), health is learned locally from probes and live traffic, and
// durability comes from each shard's own persistent registry (internal
// /serve's -cache-dir tier) rather than from consensus. The follow-ups
// that do need coordination — rebalancing on membership change, cross-
// shard batch fan-out — are ROADMAP items, not silent behavior.
package cluster
