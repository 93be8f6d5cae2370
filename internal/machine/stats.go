package machine

import (
	"repro/internal/coma"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// StallClass attributes processor stall time to the level of the memory
// hierarchy that satisfied the access, matching the paper's Figure 5
// breakdown (Busy, SLC stall, AM stall, Remote stall) plus an explicit
// synchronization-wait category the paper folds away.
type StallClass uint8

// Stall classes.
const (
	StallSLC StallClass = iota
	StallAM
	StallRemote
	stallClasses
)

// ProcStats is one processor's measured-section breakdown.
type ProcStats struct {
	// Busy is compute time (instructions and L1 hits).
	Busy engine.Time
	// Stall[c] is read/atomic stall time attributed to level c,
	// including write-buffer-full back-pressure attributed to the level
	// servicing the blocking write.
	Stall [stallClasses]engine.Time
	// Sync is time blocked at barriers, waiting for held locks, and
	// draining the write buffer at releases.
	Sync engine.Time
	// Reads and Writes count data references issued (including L1 hits).
	Reads, Writes int64
	// Finish is the processor's completion time relative to the start of
	// the measured section.
	Finish engine.Time
}

// Total returns the accounted time (Busy + stalls + sync).
func (p ProcStats) Total() engine.Time {
	t := p.Busy + p.Sync
	for _, s := range p.Stall {
		t += s
	}
	return t
}

// Result is everything a single simulation run produces.
type Result struct {
	// ExecTime is the wall-clock duration of the measured parallel
	// section (max processor finish).
	ExecTime engine.Time
	// Procs holds per-processor breakdowns.
	Procs []ProcStats
	// Reads is total processor loads in the measured section; and
	// ReadNodeMisses is how many of them missed the local attraction
	// memory and needed a global transaction — their ratio is the
	// paper's read node miss rate (RNMr).
	Reads          int64
	ReadNodeMisses int64
	// BusOccupancy[class] is total bus-occupied time per transaction
	// class (read / write / replace) — the paper's traffic metric.
	BusOccupancy [3]engine.Time
	// SLCMisses counts data references (loads and stores) that missed
	// the second-level cache and went to the memory system; the ratio
	// against Reads+Writes (MissRatio) is the hierarchy-level miss
	// ratio the clustering results trade against.
	SLCMisses int64
	// WriteBacks counts dirty SLC lines written back to the AM, and
	// DirtyPurges counts dirty lines flushed because their AM line left
	// the node.
	WriteBacks  int64
	DirtyPurges int64
	// BusUtilization is the fraction of the measured section the global
	// bus was occupied; NodeUtilization the same per node controller and
	// AM DRAM — the saturation signals behind the paper's bandwidth
	// requirements for clustering.
	BusUtilization  float64
	NodeUtilization []NodeUtil
	// ReadLatency is the distribution of per-read completion latencies
	// over latBounds (L1 hits land in the 0 ns bucket).
	ReadLatency stats.Hist
	// Resources is the measured-section usage of every timing resource,
	// in a fixed order: bus, then each node's controller and AM DRAM,
	// then each processor's SLC port.
	Resources []ResUse
	// Protocol is the protocol-level counter snapshot.
	Protocol coma.Stats
	// Timeline is the windowed counter timeline of the whole run (not
	// just the measured section); nil unless sampling was enabled with
	// Machine.EnableSampling.
	Timeline *obs.Timeline
	// Fidelity describes how a sampled-fidelity run measured and
	// extrapolated its metrics (window count, coverage, calibrated
	// contention factor, per-metric confidence); nil on exact runs.
	Fidelity *FidelityReport
}

// latBounds are the upper bounds (inclusive, ns) of the read-latency
// histogram buckets, aligned with the hierarchy's contention-free levels:
// L1 (0), SLC (32), AM (148), remote (332), then doublings for queueing.
var latBounds = []int64{0, 32, 148, 332, 664, 1328, 2656, 5312, 10624, 21248}

// ResUse is one resource's measured-section usage: occupancy, demand and
// the queueing delay its claimants suffered.
type ResUse struct {
	Name   string
	BusyNs int64
	Claims int64
	WaitNs int64
	Waits  stats.Hist
}

// Utilization returns busy time as a fraction of dur (0 when dur is 0).
func (u ResUse) Utilization(dur engine.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(u.BusyNs) / float64(dur)
}

// MeanWaitNs returns the average queueing delay per claim.
func (u ResUse) MeanWaitNs() float64 {
	if u.Claims == 0 {
		return 0
	}
	return float64(u.WaitNs) / float64(u.Claims)
}

// NodeUtil is one node's resource utilization over the measured section.
type NodeUtil struct {
	NC, DRAM float64
}

// MaxDRAMUtilization returns the busiest attraction-memory DRAM's
// utilization.
func (r *Result) MaxDRAMUtilization() float64 {
	var max float64
	for _, n := range r.NodeUtilization {
		if n.DRAM > max {
			max = n.DRAM
		}
	}
	return max
}

// RNMr returns the read node miss rate (0 when no reads occurred).
func (r *Result) RNMr() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.ReadNodeMisses) / float64(r.Reads)
}

// Writes returns total stores across processors.
func (r *Result) Writes() int64 {
	var w int64
	for i := range r.Procs {
		w += r.Procs[i].Writes
	}
	return w
}

// MissRatio returns the SLC miss ratio over all data references (0 when
// none occurred).
func (r *Result) MissRatio() float64 {
	refs := r.Reads + r.Writes()
	if refs == 0 {
		return 0
	}
	return float64(r.SLCMisses) / float64(refs)
}

// BusTotal returns total bus occupancy across classes.
func (r *Result) BusTotal() engine.Time {
	return r.BusOccupancy[0] + r.BusOccupancy[1] + r.BusOccupancy[2]
}

// Imbalance returns the ratio of the slowest processor's finish time to
// the mean finish time (1.0 = perfectly balanced). Load imbalance shows
// up in the paper's sync-wait category; this isolates it.
func (r *Result) Imbalance() float64 {
	if len(r.Procs) == 0 {
		return 1
	}
	var sum, max float64
	for _, p := range r.Procs {
		f := float64(p.Finish)
		sum += f
		if f > max {
			max = f
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(r.Procs)))
}

// MeanBreakdown averages the per-processor breakdown, the form Figure 5
// plots.
type MeanBreakdown struct {
	Busy, SLC, AM, Remote, Sync float64 // nanoseconds
}

// Breakdown computes the mean per-processor time split.
func (r *Result) Breakdown() MeanBreakdown {
	var b MeanBreakdown
	if len(r.Procs) == 0 {
		return b
	}
	for _, p := range r.Procs {
		b.Busy += float64(p.Busy)
		b.SLC += float64(p.Stall[StallSLC])
		b.AM += float64(p.Stall[StallAM])
		b.Remote += float64(p.Stall[StallRemote])
		b.Sync += float64(p.Sync)
	}
	n := float64(len(r.Procs))
	b.Busy /= n
	b.SLC /= n
	b.AM /= n
	b.Remote /= n
	b.Sync /= n
	return b
}

// Total returns the sum of the mean breakdown components.
func (b MeanBreakdown) Total() float64 {
	return b.Busy + b.SLC + b.AM + b.Remote + b.Sync
}
