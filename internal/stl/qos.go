package stl

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nds/internal/sim"
)

// Tenant QoS: per-space (or space-group) weighted fair admission in front of
// the data path. The gate runs before a request takes its space lock or books
// any channel/bank timeline, and it operates purely in wall-clock time — a
// throttled request's goroutine is delayed, not its simulated timestamps — so
// the PR 7 timing invariant (identical Acquire order ⇒ bit-identical
// completion times) holds exactly for QoS-off configs (qos == nil, same
// nil-gating idiom as the block cache) and for any serialized issue order.
//
// Background traffic (GC evacuation, flush, prefetch fill issued from within
// an admitted request) is not separately gated: GC is device-owned work, and
// prefetch is charged to the request that triggered it, which already holds a
// dispatch slot.

// TenantID names one scheduling tenant: a space, or — when bit 63 is set — a
// space group that one or more spaces are bound to.
type TenantID uint64

const tenantGroupBit TenantID = 1 << 63

// SpaceTenant is the tenant identity of an unbound space.
func SpaceTenant(id SpaceID) TenantID { return TenantID(id) }

// GroupTenant is the tenant identity of space group g.
func GroupTenant(g uint32) TenantID { return tenantGroupBit | TenantID(g) }

// TenantStats is one tenant's accumulated QoS accounting (get_tenant_stats on
// the wire; nds.TenantStats is an alias). A tenant is a space, or — when
// IsGroup is set — a space group that one or more spaces are bound to.
type TenantStats struct {
	Space     SpaceID       // the space, when not a group tenant
	Group     uint32        // the group id, when IsGroup
	IsGroup   bool          // group tenant vs single-space tenant
	Weight    float64       // weight currently scheduled under
	Ops       int64         // admitted partition requests
	Bytes     int64         // payload bytes of successful requests
	SimBusy   time.Duration // simulated device time those requests occupied
	QueueWait time.Duration // wall time spent queued for a dispatch slot
	Throttle  time.Duration // wall time spent blocked on the token bucket
}

type tenantAcct struct {
	ops         atomic.Int64
	bytes       atomic.Int64
	simBusy     atomic.Int64
	queueWaitNs atomic.Int64
	throttleNs  atomic.Int64
}

// qosState is the STL-side tenant table: the scheduler plus the space→group
// bindings and per-tenant counters. nil when QoS is disabled.
type qosState struct {
	sched *sim.FairScheduler

	mu     sync.RWMutex
	groups map[SpaceID]uint32 // space → bound group (absent = own tenant)
	acct   map[TenantID]*tenantAcct
}

// newQosState gives the fair scheduler one dispatch slot per channel: one
// outstanding request per channel keeps the timelines busy without letting
// one tenant book them arbitrarily deep.
func newQosState(cfg sim.FlowConfig, channels int) *qosState {
	return &qosState{
		sched:  sim.NewFairScheduler(channels, cfg),
		groups: make(map[SpaceID]uint32),
		acct:   make(map[TenantID]*tenantAcct),
	}
}

// tenantOf resolves the scheduling tenant for a space: its bound group if it
// has one, otherwise the space itself.
func (q *qosState) tenantOf(space SpaceID) TenantID {
	q.mu.RLock()
	g, ok := q.groups[space]
	q.mu.RUnlock()
	if ok {
		return GroupTenant(g)
	}
	return SpaceTenant(space)
}

func (q *qosState) acctOf(id TenantID) *tenantAcct {
	q.mu.RLock()
	a, ok := q.acct[id]
	q.mu.RUnlock()
	if ok {
		return a
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if a, ok = q.acct[id]; ok {
		return a
	}
	a = &tenantAcct{}
	q.acct[id] = a
	return a
}

// qosTicket carries one admitted request's accounting from admit to finish.
type qosTicket struct {
	q     *qosState
	acct  *tenantAcct
	bytes int64
}

// qosAdmit gates one partition request of the given payload size for a space.
// It returns nil immediately when QoS is off; otherwise it blocks through the
// token bucket and the fair queue and returns a ticket whose finish must be
// called exactly once when the request's device operations complete.
func (t *STL) qosAdmit(space SpaceID, bytes int64) *qosTicket {
	q := t.qos
	if q == nil {
		return nil
	}
	id := q.tenantOf(space)
	acct := q.acctOf(id)
	queueWait, throttle := q.sched.Admit(sim.FlowID(id), bytes)
	if queueWait > 0 {
		acct.queueWaitNs.Add(int64(queueWait))
	}
	if throttle > 0 {
		acct.throttleNs.Add(int64(throttle))
	}
	return &qosTicket{q: q, acct: acct, bytes: bytes}
}

// finish releases the request's dispatch slot and records its accounting.
// issue/done bound the request's device occupancy in simulated time; ok is
// false when the request failed (the slot is still released, but only the
// attempt is counted).
func (tk *qosTicket) finish(issue, done sim.Time, ok bool) {
	if tk == nil {
		return
	}
	tk.q.sched.Release()
	tk.acct.ops.Add(1)
	if ok {
		tk.acct.bytes.Add(tk.bytes)
		if done > issue {
			tk.acct.simBusy.Add(int64(done - issue))
		}
	}
}

// qosBytes is the payload size used for admission: the partition's row-major
// byte count. Partitions are full coord/sub boxes, so the product is exact.
func qosBytes(s *Space, sub []int64) int64 {
	return prod(sub) * int64(s.elemSize)
}

// SetTenantQoS overrides one tenant's weight and rate limit. Requests already
// queued keep their tags; new requests schedule under the new parameters.
func (t *STL) SetTenantQoS(id TenantID, cfg sim.FlowConfig) error {
	if t.qos == nil {
		return fmt.Errorf("stl: tenant QoS is not enabled: %w", ErrInvalid)
	}
	t.qos.sched.SetFlow(sim.FlowID(id), cfg)
	return nil
}

// BindSpaceGroup binds a space to a group tenant so several spaces share one
// weight and one token bucket; group 0 unbinds the space back to its own
// tenant. Takes effect for requests admitted after the call.
func (t *STL) BindSpaceGroup(space SpaceID, group uint32) error {
	if t.qos == nil {
		return fmt.Errorf("stl: tenant QoS is not enabled: %w", ErrInvalid)
	}
	t.qos.mu.Lock()
	if group == 0 {
		delete(t.qos.groups, space)
	} else {
		t.qos.groups[space] = group
	}
	t.qos.mu.Unlock()
	return nil
}

// qosForgetSpace drops a deleted space's tenant state so the flow table stays
// proportional to live tenants. Group tenants persist (other spaces may still
// be bound to them).
func (t *STL) qosForgetSpace(space SpaceID) {
	q := t.qos
	if q == nil {
		return
	}
	id := SpaceTenant(space)
	q.mu.Lock()
	delete(q.groups, space)
	delete(q.acct, id)
	q.mu.Unlock()
	q.sched.Forget(sim.FlowID(id))
}

// TenantStats snapshots per-tenant accounting for every tenant that has been
// scheduled, in ascending TenantID order (spaces before groups). Returns nil
// when QoS is disabled.
func (t *STL) TenantStats() []TenantStats {
	q := t.qos
	if q == nil {
		return nil
	}
	q.mu.RLock()
	ids := make([]TenantID, 0, len(q.acct))
	for id := range q.acct {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]TenantStats, len(ids))
	for i, id := range ids {
		a := q.acct[id]
		out[i] = TenantStats{
			Weight:    q.sched.Flow(sim.FlowID(id)).Weight,
			Ops:       a.ops.Load(),
			Bytes:     a.bytes.Load(),
			SimBusy:   time.Duration(a.simBusy.Load()),
			QueueWait: time.Duration(a.queueWaitNs.Load()),
			Throttle:  time.Duration(a.throttleNs.Load()),
		}
		if id&tenantGroupBit != 0 {
			out[i].IsGroup, out[i].Group = true, uint32(id&^tenantGroupBit)
		} else {
			out[i].Space = SpaceID(id)
		}
		if out[i].Weight <= 0 {
			out[i].Weight = 1
		}
	}
	q.mu.RUnlock()
	return out
}
