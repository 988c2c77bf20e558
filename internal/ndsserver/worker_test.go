package ndsserver_test

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
	"nds/internal/proto"
)

// liveWorkers counts the server's request workers alive in this process, by
// their frame in a dump of every goroutine's stack.
func liveWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("ndsserver.(*conn).worker("))
}

// eventually polls cond until it holds, failing the test after five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not so after 5 s", what)
		}
	}
}

// pipelined issues n concurrent reads of one 8x8 partition on c and waits for
// all of them.
func pipelined(t *testing.T, c *ndsclient.Client, view uint32, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); err != nil {
				t.Errorf("pipelined read: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestWorkersStayWarm: a connection at depth 1 is served by the worker that
// served its last request, not by a goroutine per request — at most a second
// worker exists, started if a request ever arrived in the instant between the
// first one's response and its parking.
func TestWorkersStayWarm(t *testing.T) {
	_, srv, addr := startServer(t, ndsserver.Config{})
	c := dial(t, addr)
	_, view, err := c.CreateSpace(4, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	const reads = 10000
	for i := 0; i < reads; i++ {
		if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveWorkers(); n < 1 || n > 2 {
		t.Fatalf("%d workers after %d sequential round trips, want 1 or 2", n, reads)
	}
	if got := srv.Stats().Requests; got != reads+1 {
		t.Fatalf("server executed %d requests, want %d", got, reads+1)
	}
}

// TestWorkerBurstBounded: a burst deeper than MaxInFlight executes on exactly
// MaxInFlight workers — concurrently, not inline on the reader, and never on
// more — and every request completes. The tenant's rate cap makes each read
// wait on the token bucket, so the burst piles up behind the limit.
func TestWorkerBurstBounded(t *testing.T) {
	const maxInFlight = 4
	dev, _, addr := serveDevice(t, nds.Options{
		Mode:         nds.ModeHardware,
		CapacityHint: 16 << 20,
		TenantQoS:    &nds.TenantQoS{Weight: 1},
	}, ndsserver.Config{MaxInFlight: maxInFlight})
	c := dial(t, addr)
	space, view, err := c.CreateSpace(4, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetTenantQoS(nds.SpaceID(space), nds.TenantQoS{Weight: 1, RateBytesPerSec: 2 << 20, Burst: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		max := 0
		for {
			select {
			case <-done:
				peak <- max
				return
			default:
				if n := liveWorkers(); n > max {
					max = n
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < maxInFlight+8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := c.Read(view, []int64{int64(i / 4), int64(i % 4)}, []int64{64, 64})
			if err != nil || len(data) != 64*64*4 {
				t.Errorf("burst read %d: %d B, %v", i, len(data), err)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	if max := <-peak; max > maxInFlight {
		t.Fatalf("%d workers seen during the burst, limit %d", max, maxInFlight)
	}
	if n := liveWorkers(); n != maxInFlight {
		t.Fatalf("%d workers after a burst of %d throttled reads, want %d: the burst did not run concurrently up to the limit",
			n, maxInFlight+8, maxInFlight)
	}
}

// TestWorkerAndViewLeaks: however a connection ends — client close, idle
// timeout, oversized frame, write failure, or Shutdown with the client still
// connected — its reader and every parked worker exit and its views are
// retired: after Shutdown the device's view registry is empty, and once the
// device is closed the process has the goroutines it had before Serve.
func TestWorkerAndViewLeaks(t *testing.T) {
	// open leaves a connection with a view open and several workers parked.
	open := func(t *testing.T, addr string) (*ndsclient.Client, uint32) {
		c := dial(t, addr)
		_, view, err := c.CreateSpace(4, []int64{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		pipelined(t, c, view, 8)
		return c, view
	}
	endings := []struct {
		name string
		cfg  ndsserver.Config
		end  func(t *testing.T, dev *nds.Device, srv *ndsserver.Server, addr string)
	}{
		{"client close", ndsserver.Config{}, func(t *testing.T, dev *nds.Device, _ *ndsserver.Server, addr string) {
			c, _ := open(t, addr)
			c.Close()
			eventually(t, "views retired after close", func() bool { return dev.OpenViews() == 0 })
		}},
		{"idle timeout", ndsserver.Config{ReadTimeout: 50 * time.Millisecond}, func(t *testing.T, dev *nds.Device, srv *ndsserver.Server, addr string) {
			open(t, addr)
			eventually(t, "idle connection dropped", func() bool { return srv.Stats().Drops == 1 && dev.OpenViews() == 0 })
		}},
		{"oversized frame", ndsserver.Config{MaxFrameBytes: 8192}, func(t *testing.T, dev *nds.Device, srv *ndsserver.Server, addr string) {
			c, view := open(t, addr)
			if err := c.Write(view, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4)); err == nil {
				t.Error("oversized frame was served")
			}
			eventually(t, "oversized connection dropped", func() bool { return srv.Stats().Drops == 1 && dev.OpenViews() == 0 })
		}},
		{"write failure", ndsserver.Config{WriteTimeout: 50 * time.Millisecond}, func(t *testing.T, dev *nds.Device, srv *ndsserver.Server, addr string) {
			// A host that pipelines reads and never takes a response: the
			// socket fills, a worker's write times out, the rest discard.
			nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			page, err := proto.SpacePayload{ElemSize: 4, Dims: []int64{256, 256}}.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if err := proto.WriteRequest(nc, proto.Request{Seq: 1, Cmd: proto.NewOpenSpace(0, 0, true).Marshal(), Payload: page}); err != nil {
				t.Fatal(err)
			}
			opened, err := proto.ReadResponse(nc, 0)
			if err != nil || opened.Cpl.Status != proto.StatusOK {
				t.Fatalf("create_space: %+v, %v", opened.Cpl, err)
			}
			page, err = proto.CoordPayload{Coord: []int64{0, 0}, Sub: []int64{64, 64}}.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
			for seq := uint64(2); seq < 130; seq++ {
				req := proto.Request{Seq: seq, Cmd: proto.NewRead(uint32(opened.Cpl.Result1), 0).Marshal(), Payload: page}
				if proto.WriteRequest(nc, req) != nil {
					break // the server has hung up already
				}
			}
			eventually(t, "unread connection dropped", func() bool { return srv.Stats().Drops == 1 && dev.OpenViews() == 0 })
		}},
		{"shutdown", ndsserver.Config{DrainGrace: 20 * time.Millisecond}, func(t *testing.T, _ *nds.Device, _ *ndsserver.Server, addr string) {
			open(t, addr) // still connected when Shutdown begins
		}},
	}
	for _, e := range endings {
		before := runtime.NumGoroutine()
		t.Run(e.name, func(t *testing.T) {
			dev, srv, addr := startServer(t, e.cfg)
			e.end(t, dev, srv, addr)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if n := dev.OpenViews(); n != 0 {
				t.Errorf("%d views still registered after Shutdown", n)
			}
			if n := liveWorkers(); n != 0 {
				t.Errorf("%d workers outlived Shutdown", n)
			}
		})
		// The subtest's cleanups have closed its clients and its device.
		eventually(t, e.name+": goroutine count back to its pre-Serve value", func() bool { return runtime.NumGoroutine() <= before })
	}
}
