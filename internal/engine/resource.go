package engine

import (
	"fmt"

	"repro/internal/stats"
)

// Time is a simulation timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
)

// String formats the time as nanoseconds with a unit suffix.
func (t Time) String() string { return fmt.Sprintf("%dns", int64(t)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// waitBounds are the wait-histogram bucket upper bounds (inclusive, ns):
// zero-wait claims first, then doublings spanning one bus phase up to deep
// queueing, then the histogram's unbounded overflow bucket.
var waitBounds = []int64{0, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120}

// Resource models a unit-capacity, FCFS-served hardware resource such as a
// DRAM bank, a node controller or a shared bus. A request arriving at time
// t begins service at max(t, freeAt) and occupies the resource for its
// occupancy period. Latency seen by the requester may exceed occupancy
// (pipelined resources free up before the reply reaches the requester).
type Resource struct {
	name   string
	freeAt Time
	// busyTotal accumulates occupied time, for utilization reporting.
	busyTotal Time
	// waits profiles queueing delay, how long claims sat behind earlier
	// work before starting service; it also counts the claims.
	waits stats.Hist
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name, waits: stats.NewHist(waitBounds)}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Claim occupies the resource for occ starting no earlier than at, and
// returns the service start time. The caller's completion time is
// typically start plus a latency that is at least occ.
func (r *Resource) Claim(at, occ Time) (start Time) {
	if occ < 0 {
		panic("engine: negative occupancy")
	}
	start = Max(at, r.freeAt)
	r.freeAt = start + occ
	r.busyTotal += occ
	r.waits.Add(int64(start - at))
	return start
}

// Probe reports when a request arriving at time at would start service,
// without claiming the resource.
func (r *Resource) Probe(at Time) Time { return Max(at, r.freeAt) }

// FreeAt reports the time the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTotal reports total occupied time since construction or Reset.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Claims reports the number of Claim calls since construction or Reset.
func (r *Resource) Claims() int64 { return r.waits.Total() }

// WaitTotal reports total queueing delay since construction or Reset.
func (r *Resource) WaitTotal() Time { return Time(r.waits.Sum) }

// Waits returns the queueing-delay histogram since construction or Reset.
func (r *Resource) Waits() stats.Hist { return r.waits }

// Reset clears utilization counters but leaves the schedule (freeAt)
// intact, so statistics can be restricted to a measured region.
func (r *Resource) Reset() {
	r.busyTotal = 0
	r.waits = stats.NewHist(waitBounds)
}
