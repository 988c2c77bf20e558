package sim

import (
	"container/heap"
	"math"
	"sync"
	"time"
)

// Weighted fair admission over simulated-device dispatch slots.
//
// A FairScheduler sits in front of the resource timelines: a request asks to
// be admitted before it books any channel/bank reservations, occupies one of
// a fixed number of dispatch slots while its device operations run, and
// releases the slot when the request completes. When every slot is busy,
// waiting requests are ordered by start-time fair queueing (SFQ): each flow
// carries a virtual finish tag advanced by bytes/weight per request, and the
// waiter with the smallest tag is admitted next — so a flow that floods the
// device accumulates far-future tags and queues behind lighter flows instead
// of monopolizing the timelines. A per-flow token bucket (RateBytesPerSec /
// Burst) is charged before the slot wait, so a rate-capped flow blocks
// in wall-clock time without consuming a slot.
//
// The scheduler operates entirely in the wall-clock domain: it delays when a
// request's goroutine is allowed to start booking simulated timelines, and
// never touches a Resource or a simulated timestamp. A configuration that
// never constructs a FairScheduler therefore has bit-identical simulated
// completion times to one built before the type existed.

// FlowID identifies one scheduling flow (a tenant) in a FairScheduler.
type FlowID uint64

// FlowConfig is one flow's scheduling parameters.
type FlowConfig struct {
	// Weight is the flow's relative share of dispatch slots under
	// contention. Values <= 0 select weight 1.
	Weight float64
	// RateBytesPerSec caps the flow's admitted payload bandwidth via a token
	// bucket charged before admission; <= 0 leaves the flow uncapped.
	RateBytesPerSec float64
	// Burst is the token bucket depth. <= 0 selects the larger of 1 MiB
	// and 100 ms of RateBytesPerSec. Requests larger than the burst are
	// charged the full bucket (they admit once the bucket refills completely).
	Burst int64
}

func (c FlowConfig) weight() float64 {
	if c.Weight > 0 {
		return c.Weight
	}
	return 1
}

func (c FlowConfig) burst() float64 {
	if c.Burst > 0 {
		return float64(c.Burst)
	}
	b := c.RateBytesPerSec / 10
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

type qosFlow struct {
	cfg     FlowConfig
	vfinish float64   // virtual finish tag of the flow's latest request
	tokens  float64   // token bucket level, bytes
	last    time.Time // last refill instant; zero until first rate-capped use
}

type qosWaiter struct {
	start, fin float64
	seq        uint64
	ready      chan struct{}
}

type waiterHeap []*qosWaiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].fin != h[j].fin {
		return h[i].fin < h[j].fin
	}
	return h[i].seq < h[j].seq // FIFO among equal tags
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*qosWaiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// FairScheduler is a weighted fair admission gate with per-flow token
// buckets. Safe for concurrent use.
type FairScheduler struct {
	mu       sync.Mutex
	slots    int
	inflight int
	vtime    float64
	def      FlowConfig
	flows    map[FlowID]*qosFlow
	waiting  waiterHeap
	seq      uint64

	// now/sleep are the wall clock, swappable by tests in this package for
	// deterministic token-bucket timing.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewFairScheduler builds a scheduler with the given number of concurrent
// dispatch slots (minimum 1) and the default per-flow configuration applied
// to flows without an explicit SetFlow.
func NewFairScheduler(slots int, def FlowConfig) *FairScheduler {
	if slots < 1 {
		slots = 1
	}
	return &FairScheduler{
		slots: slots,
		def:   def,
		flows: make(map[FlowID]*qosFlow),
		now:   time.Now,
		sleep: time.Sleep,
	}
}

// flowLocked returns the flow's state, creating it from the default config on
// first use. Callers hold q.mu.
func (q *FairScheduler) flowLocked(id FlowID) *qosFlow {
	f, ok := q.flows[id]
	if !ok {
		f = &qosFlow{cfg: q.def}
		q.flows[id] = f
	}
	return f
}

// SetFlow overrides one flow's configuration. The flow's virtual tag and
// bucket level carry over, so a live flow can be re-weighted or re-capped
// without losing its place.
func (q *FairScheduler) SetFlow(id FlowID, cfg FlowConfig) {
	q.mu.Lock()
	q.flowLocked(id).cfg = cfg
	q.mu.Unlock()
}

// Flow reports the configuration a flow is scheduled under (the default for
// flows never overridden).
func (q *FairScheduler) Flow(id FlowID) FlowConfig {
	q.mu.Lock()
	defer q.mu.Unlock()
	if f, ok := q.flows[id]; ok {
		return f.cfg
	}
	return q.def
}

// Forget drops a flow's state (tag and bucket). Used when a tenant is
// deleted so the flow table stays proportional to live tenants.
func (q *FairScheduler) Forget(id FlowID) {
	q.mu.Lock()
	delete(q.flows, id)
	q.mu.Unlock()
}

// Admit blocks until the flow may dispatch a request of the given payload
// size: first the token bucket (throttle), then a dispatch slot in weighted
// fair order (queueWait). Every successful Admit must be paired with exactly
// one Release when the request's device operations complete.
func (q *FairScheduler) Admit(id FlowID, bytes int64) (queueWait, throttle time.Duration) {
	if bytes < 1 {
		bytes = 1
	}
	throttle = q.takeTokens(id, bytes)

	q.mu.Lock()
	f := q.flowLocked(id)
	start := math.Max(q.vtime, f.vfinish)
	fin := start + float64(bytes)/f.cfg.weight()
	f.vfinish = fin
	if q.inflight < q.slots && len(q.waiting) == 0 {
		q.inflight++
		q.vtime = start
		q.mu.Unlock()
		return 0, throttle
	}
	w := &qosWaiter{start: start, fin: fin, seq: q.seq, ready: make(chan struct{})}
	q.seq++
	heap.Push(&q.waiting, w)
	q.mu.Unlock()

	t0 := q.now()
	<-w.ready
	return q.now().Sub(t0), throttle
}

// Release frees the caller's dispatch slot, handing it to the waiting
// request with the smallest virtual finish tag if any is queued.
func (q *FairScheduler) Release() {
	q.mu.Lock()
	if len(q.waiting) > 0 {
		w := heap.Pop(&q.waiting).(*qosWaiter)
		if w.start > q.vtime {
			q.vtime = w.start
		}
		close(w.ready) // the slot transfers; inflight is unchanged
		q.mu.Unlock()
		return
	}
	q.inflight--
	q.mu.Unlock()
}

// takeTokens charges the flow's token bucket for the request, sleeping until
// enough tokens accumulate. Buckets start full, so a burst up to Burst
// admits immediately; sustained load is paced at RateBytesPerSec.
func (q *FairScheduler) takeTokens(id FlowID, bytes int64) time.Duration {
	var waited time.Duration
	q.mu.Lock()
	for {
		f := q.flowLocked(id)
		rate := f.cfg.RateBytesPerSec
		if rate <= 0 {
			q.mu.Unlock()
			return waited
		}
		burst := f.cfg.burst()
		now := q.now()
		if f.last.IsZero() {
			f.tokens = burst
		} else {
			f.tokens = math.Min(burst, f.tokens+now.Sub(f.last).Seconds()*rate)
		}
		f.last = now
		cost := math.Min(float64(bytes), burst)
		if f.tokens >= cost {
			f.tokens -= cost
			q.mu.Unlock()
			return waited
		}
		need := time.Duration((cost - f.tokens) / rate * float64(time.Second))
		if need < time.Microsecond {
			need = time.Microsecond
		}
		q.mu.Unlock()
		q.sleep(need)
		waited += need
		q.mu.Lock()
	}
}
