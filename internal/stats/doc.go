// Package stats provides small result-presentation helpers shared by the
// experiment drivers and command-line tools: aligned text tables, bar
// rendering, relative-metric math, and Hist, the one fixed-bucket
// histogram (resource queueing, read latency, comasrv durations).
package stats
