// Package tsdb is a dependency-free in-process time-series store for
// the daemon's own metrics: fixed-capacity ring buffers per series,
// organized into resolution tiers (by default 10s steps for the last
// hour and 2m steps for the last day), fed by a self-scrape loop with
// the exposition page the server builds for GET /metrics.
//
// Design rules (DESIGN.md §13):
//
//   - Bounded forever. Every tier is a preallocated ring; a series costs
//     a fixed number of bytes no matter how long the process runs.
//   - Staircase downsampling. A tier bucket keeps the last sample that
//     landed in it, so counters read as staircases at any resolution and
//     rates computed between bucket values are exact over the bucket
//     span. No averaging, no rate estimation inside the store.
//   - Deterministic. Nothing reads the wall clock; every Append and
//     Query takes explicit timestamps, so tests drive the store with a
//     synthetic clock and assert byte-stable results.
//
// Scrape is the one in-memory form of an exposition page: family
// metadata plus flat samples. Text renders it as Prometheus text
// (format 0.0.4) and ParseExposition is its inverse, used only on
// bytes from outside the process (a peer's or comatop's scrape).
package tsdb
