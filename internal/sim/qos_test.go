package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFairSchedulerWeightedSplit saturates a single dispatch slot with two
// flows at weights 2:1 and checks the admission counts split 2:1 within 10%.
// Each flow keeps several workers queued at all times so the heap always has
// both flows to choose from — the steady-state regime WFQ guarantees cover.
func TestFairSchedulerWeightedSplit(t *testing.T) {
	q := NewFairScheduler(1, FlowConfig{})
	q.SetFlow(1, FlowConfig{Weight: 2})
	q.SetFlow(2, FlowConfig{Weight: 1})

	const (
		workersPerFlow = 4
		totalOps       = 6000
		opBytes        = 1 << 12
	)
	var counts [3]atomic.Int64
	var total atomic.Int64
	var wg sync.WaitGroup

	// Occupy the slot so every worker starts from the queued state; release
	// it once all workers are launched.
	q.Admit(99, 1)
	for flow := FlowID(1); flow <= 2; flow++ {
		for w := 0; w < workersPerFlow; w++ {
			wg.Add(1)
			go func(flow FlowID) {
				defer wg.Done()
				for {
					q.Admit(flow, opBytes)
					n := total.Add(1)
					counts[flow].Add(1)
					q.Release()
					if n >= totalOps {
						return
					}
				}
			}(flow)
		}
	}
	// Give the workers a moment to enqueue, then hand over the slot.
	time.Sleep(10 * time.Millisecond)
	q.Release()
	wg.Wait()

	a, b := counts[1].Load(), counts[2].Load()
	if a == 0 || b == 0 {
		t.Fatalf("flow starved: counts = %d, %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("weighted 2:1 split off by >10%%: got %d:%d (ratio %.3f)", a, b, ratio)
	}
}

// TestFairSchedulerTokenBucket drives the token bucket on a fake clock: the
// initial burst admits instantly, then sustained requests are paced at
// exactly RateBytesPerSec.
func TestFairSchedulerTokenBucket(t *testing.T) {
	q := NewFairScheduler(4, FlowConfig{})
	var clock time.Time = time.Unix(0, 0)
	var mu sync.Mutex
	q.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	q.sleep = func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	q.SetFlow(7, FlowConfig{RateBytesPerSec: 1 << 20, Burst: 1 << 20})

	// Bucket starts full: the first 1 MiB admits with zero throttle.
	_, th := q.Admit(7, 1<<20)
	q.Release()
	if th != 0 {
		t.Fatalf("first burst throttled %v, want 0", th)
	}
	// The next 1 MiB must wait for a full refill: 1 MiB / 1 MiB/s = 1 s.
	_, th = q.Admit(7, 1<<20)
	q.Release()
	if th < 900*time.Millisecond || th > 1100*time.Millisecond {
		t.Fatalf("refill throttle = %v, want ~1s", th)
	}
	// A request larger than the burst is charged one full bucket, not its
	// byte count — it admits after a bucket refill instead of deadlocking.
	_, th = q.Admit(7, 10<<20)
	q.Release()
	if th < 900*time.Millisecond || th > 1100*time.Millisecond {
		t.Fatalf("oversized request throttle = %v, want ~1s (one bucket)", th)
	}
}

// TestFairSchedulerSlotHandoff checks Release hands the slot to the queued
// waiter with the smallest virtual finish tag, not FIFO arrival order.
func TestFairSchedulerSlotHandoff(t *testing.T) {
	q := NewFairScheduler(1, FlowConfig{})
	q.SetFlow(1, FlowConfig{Weight: 1})
	q.SetFlow(2, FlowConfig{Weight: 100})

	q.Admit(9, 1) // occupy the slot

	var order []FlowID
	var mu sync.Mutex
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 2)

	enqueue := func(flow FlowID, bytes int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Admit(flow, bytes)
			mu.Lock()
			order = append(order, flow)
			mu.Unlock()
			admitted <- struct{}{}
			q.Release()
		}()
	}
	// Heavy flow 1 enqueues first with a large request (large finish tag);
	// light flow 2 enqueues second with the same bytes but 100× the weight,
	// so its tag is far smaller and it must be admitted first.
	enqueue(1, 1<<20)
	time.Sleep(5 * time.Millisecond) // ensure flow 1 is queued first
	enqueue(2, 1<<20)
	time.Sleep(5 * time.Millisecond)

	q.Release() // hand the slot to the smallest tag
	<-admitted
	<-admitted
	wg.Wait()

	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("admission order = %v, want [2 1] (smallest finish tag first)", order)
	}
}
