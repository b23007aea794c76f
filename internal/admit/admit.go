// Package admit is a bounded admission gate for ingest: a fixed number
// of concurrency slots acquired without blocking. A request that finds
// no free slot is shed immediately — the caller maps that to 429 with
// Retry-After — instead of queueing behind a pile-up, so an overloaded
// front-end degrades by rejecting work it cannot do rather than by
// growing latency without bound.
package admit

import (
	"sync/atomic"

	"entityid/internal/obs"
)

// Process-global gate metrics: entityidd runs one gate, so the
// aggregate view a scrape wants matches the gate's own counters.
var (
	mInFlight = obs.Default.Gauge("admit_inflight",
		"Ingest requests currently holding an admission slot")
	mAdmitted = obs.Default.Counter("admit_admitted_total",
		"Ingest requests admitted through the gate")
	mShed = obs.Default.Counter("admit_shed_total",
		"Ingest requests shed for lack of a free slot")
)

// Gate is a non-blocking concurrency limiter. The zero value is
// unusable; construct with New.
type Gate struct {
	limit    int64
	inflight atomic.Int64
	shed     atomic.Int64
	admitted atomic.Int64
}

// New returns a gate with the given number of slots. limit <= 0 means
// unlimited: TryAcquire always succeeds (admission control disabled).
func New(limit int) *Gate {
	return &Gate{limit: int64(limit)}
}

// TryAcquire claims a slot without blocking. On false the request must
// be shed; on true the caller must Release exactly once. The in-flight
// count never exceeds the limit, not even transiently: a slot is
// claimed by compare-and-swap only while one is free.
func (g *Gate) TryAcquire() bool {
	if g.limit <= 0 {
		g.admitted.Add(1)
		mAdmitted.Inc()
		return true
	}
	for {
		n := g.inflight.Load()
		if n >= g.limit {
			g.shed.Add(1)
			mShed.Inc()
			return false
		}
		if g.inflight.CompareAndSwap(n, n+1) {
			break
		}
	}
	g.admitted.Add(1)
	mAdmitted.Inc()
	mInFlight.Add(1)
	return true
}

// Release returns a slot claimed by a successful TryAcquire.
func (g *Gate) Release() {
	if g.limit <= 0 {
		return
	}
	g.inflight.Add(-1)
	mInFlight.Add(-1)
}

// InFlight reports the currently held slots.
func (g *Gate) InFlight() int { return int(g.inflight.Load()) }

// Limit reports the configured slot count (0 = unlimited).
func (g *Gate) Limit() int { return int(g.limit) }

// Counts reports how many requests were admitted and how many were
// shed over the gate's lifetime.
func (g *Gate) Counts() (admitted, shed int64) {
	return g.admitted.Load(), g.shed.Load()
}
