package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
)

// The network workload reads 64x64 float32 tiles of a shared 1024x1024 space
// — the same shape as the in-process concurrent-client benchmark, so the two
// measure the same device work with and without the wire in between.
const (
	netDim     = 1024
	netTiles   = 256 // 16x16 grid
	netZipfS   = 1.1 // Zipfian skew of the tile choice
	burstScale = 4   // burst phases run the middle third at this multiple
)

// netOpts configures one open-loop run of Poisson arrivals.
type netOpts struct {
	Conns int
	Rate  float64 // aggregate target, ops/s
	Dur   time.Duration
	Burst bool // middle third of Dur at burstScale x Rate
	// MaxOutstanding bounds unfinished requests per connection; arrivals
	// beyond the bound are shed (counted, not sent). Zero is unbounded — the
	// pure open loop. The antagonist benchmark bounds its flood so a
	// throttled tenant's backlog (and drain time) stays finite.
	MaxOutstanding int
}

// netResult is one run's outcome. Latencies are measured from each request's
// *scheduled* arrival time, not its send time, so queueing delay behind a
// slow response is charged to the server (no coordinated omission).
type netResult struct {
	Sent, Done, Errors   int64
	Shed                 int64 // arrivals dropped by MaxOutstanding
	Elapsed              time.Duration
	AchievedRps          float64
	MeanNs               float64
	P50Ns, P99Ns, P999Ns float64
}

// runNetLoad drives an open-loop load against a live server: each connection
// schedules Poisson arrivals at Rate/Conns ops/s,
// dispatches every request at its scheduled time regardless of how many are
// still outstanding, and records completion latency from the schedule.
func runNetLoad(addr string, o netOpts) (netResult, error) {
	_, clients, views, err := dialNetGroup(addr, o.Conns)
	if err != nil {
		return netResult{}, err
	}
	defer closeClients(clients)
	return driveOpenLoop(clients, views, o, 9000)
}

// dialNetGroup dials n connections; the first creates a fresh netDim² float32
// space and the rest open views of it, so the group is one tenant with its
// own space — the antagonist benchmark dials two groups against one server.
// Every connection's path (frame buffers, device arenas) is warmed off the
// clock. On error the already-dialed connections are closed.
func dialNetGroup(addr string, n int) (space uint32, clients []*ndsclient.Client, views []uint32, err error) {
	clients = make([]*ndsclient.Client, 0, n)
	views = make([]uint32, n)
	defer func() {
		if err != nil {
			closeClients(clients)
			clients = nil
		}
	}()
	for i := 0; i < n; i++ {
		c, derr := ndsclient.Dial(addr)
		if derr != nil {
			return 0, clients, nil, fmt.Errorf("conn %d: %w", i, derr)
		}
		clients = append(clients, c)
		if i == 0 {
			if space, views[0], err = c.CreateSpace(4, []int64{netDim, netDim}); err != nil {
				return 0, clients, nil, err
			}
			continue
		}
		if views[i], err = c.OpenView(space, 4, []int64{netDim, netDim}); err != nil {
			return 0, clients, nil, fmt.Errorf("conn %d: %w", i, err)
		}
	}
	for i, c := range clients {
		if _, err = c.Read(views[i], []int64{0, 0}, []int64{64, 64}); err != nil {
			return 0, clients, nil, fmt.Errorf("warmup conn %d: %w", i, err)
		}
	}
	return space, clients, views, nil
}

func closeClients(clients []*ndsclient.Client) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}

// driveOpenLoop runs the open-loop arrival schedule over an already-dialed
// connection group and reduces the latencies to percentiles. seedBase keeps
// concurrent groups (victim, antagonist) on disjoint deterministic streams.
func driveOpenLoop(clients []*ndsclient.Client, views []uint32, o netOpts, seedBase int64) (netResult, error) {
	var (
		sent, errs, shed atomic.Int64
		latMu            sync.Mutex
		lats             []time.Duration
		wg               sync.WaitGroup
	)
	start := time.Now()
	perConn := o.Rate / float64(len(clients))
	for i := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, view := clients[ci], views[ci]
			rng := rand.New(rand.NewSource(seedBase + int64(ci)))
			zipf := rand.NewZipf(rng, netZipfS, 1, netTiles-1)
			var sem chan struct{}
			if o.MaxOutstanding > 0 {
				sem = make(chan struct{}, o.MaxOutstanding)
			}
			local := make([]time.Duration, 0, int(perConn*o.Dur.Seconds())+16)
			var localMu sync.Mutex
			var reqWG sync.WaitGroup
			for next := time.Duration(0); next < o.Dur; {
				rate := perConn
				if o.Burst && next >= o.Dur/3 && next < 2*o.Dur/3 {
					rate *= burstScale
				}
				sched := start.Add(next)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				next += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				tile := int64(zipf.Uint64())
				if sem != nil {
					select {
					case sem <- struct{}{}:
					default:
						shed.Add(1) // queue bound hit: shed, keep the schedule
						continue
					}
				}
				sent.Add(1)
				reqWG.Add(1)
				// Open loop: the arrival schedule never waits for responses,
				// so a stalled server accumulates latency, not a lighter load.
				go func(sched time.Time, tile int64) {
					defer reqWG.Done()
					_, err := c.Read(view, []int64{tile / 16, tile % 16}, []int64{64, 64})
					if sem != nil {
						<-sem
					}
					lat := time.Since(sched)
					if err != nil {
						errs.Add(1)
						return
					}
					localMu.Lock()
					local = append(local, lat)
					localMu.Unlock()
				}(sched, tile)
			}
			reqWG.Wait()
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := netResult{
		Sent:    sent.Load(),
		Done:    int64(len(lats)),
		Errors:  errs.Load(),
		Shed:    shed.Load(),
		Elapsed: elapsed,
	}
	if len(lats) == 0 {
		return res, fmt.Errorf("no requests completed (%d errors)", res.Errors)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	pct := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))])
	}
	res.AchievedRps = float64(res.Done) / elapsed.Seconds()
	res.MeanNs = float64(sum) / float64(len(lats))
	res.P50Ns = pct(0.50)
	res.P99Ns = pct(0.99)
	res.P999Ns = pct(0.999)
	return res, nil
}

// runNet is the -net CLI mode: load an external ndsd (CI smoke, manual
// experiments) and print the tail-latency report.
func runNet(addr string, o netOpts) {
	fmt.Printf("\n=== Open-loop network load: %s ===\n", addr)
	fmt.Printf("conns %d  target %.0f ops/s (poisson)  zipf %.2f  burst %v  dur %v\n",
		o.Conns, o.Rate, netZipfS, o.Burst, o.Dur)
	res, err := runNetLoad(addr, o)
	if err != nil {
		fatalf("net load: %v", err)
	}
	fmt.Printf("sent %d  done %d  errors %d  achieved %.1f ops/s\n",
		res.Sent, res.Done, res.Errors, res.AchievedRps)
	fmt.Printf("latency us: mean %.0f  p50 %.0f  p99 %.0f  p999 %.0f\n",
		res.MeanNs/1e3, res.P50Ns/1e3, res.P99Ns/1e3, res.P999Ns/1e3)
	if res.Errors > 0 {
		fatalf("net load: %d requests failed", res.Errors)
	}
}

// The streaming benchmark fetches a 16 MiB float32 partition — large enough
// that one synchronous nds_read per frame leaves the device idle between
// round trips, small enough to run in CI.
const (
	streamRows = 4096
	streamCols = 1024
	streamElem = 4
)

// selfHostedServer opens a device with the given options and serves it on a
// private unix socket, so benchmarks that are not pointed at an external ndsd
// still measure the full wire path. The returned cleanup drains the server,
// closes the device, and removes the socket directory.
func selfHostedServer(opts nds.Options, cfg ndsserver.Config, tag string) (dev *nds.Device, addr string, cleanup func(), err error) {
	dev, err = nds.Open(opts)
	if err != nil {
		return nil, "", nil, err
	}
	srv := ndsserver.New(dev, cfg)
	dir, err := os.MkdirTemp("", tag)
	if err != nil {
		dev.Close()
		return nil, "", nil, err
	}
	l, err := net.Listen("unix", filepath.Join(dir, "nds.sock"))
	if err != nil {
		dev.Close()
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	addr = "unix:" + l.Addr().String()
	go srv.Serve(l)
	cleanup = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		dev.Close()
		os.RemoveAll(dir)
	}
	return dev, addr, cleanup, nil
}

// streamResult is one stream-vs-single-read measurement: best-of-streamIters
// wall time for a whole-partition read and for the windowed ReadStream of the
// same bytes (both verified against the written data on their first iteration).
type streamResult struct {
	Bytes      int64
	SingleBest time.Duration
	StreamBest time.Duration
}

const streamIters = 3

// measureStream writes the 16 MiB benchmark partition over one connection and
// times whole-partition reads against the windowed stream.
func measureStream(addr string) (streamResult, error) {
	c, err := ndsclient.Dial(addr)
	if err != nil {
		return streamResult{}, err
	}
	defer c.Close()
	_, view, err := c.CreateSpace(streamElem, []int64{streamRows, streamCols})
	if err != nil {
		return streamResult{}, err
	}
	total := streamRows * streamCols * streamElem
	data := make([]byte, total)
	rng := rand.New(rand.NewSource(42))
	rng.Read(data)
	if err := c.Write(view, []int64{0, 0}, []int64{streamRows, streamCols}, data); err != nil {
		return streamResult{}, err
	}

	coord, sub := []int64{0, 0}, []int64{streamRows, streamCols}
	res := streamResult{Bytes: int64(total)}
	for i := 0; i < streamIters; i++ {
		t0 := time.Now()
		got, err := c.Read(view, coord, sub)
		d := time.Since(t0)
		if err != nil {
			return streamResult{}, fmt.Errorf("single read: %w", err)
		}
		if i == 0 && !bytes.Equal(got, data) {
			return streamResult{}, fmt.Errorf("single read returned wrong bytes")
		}
		if res.SingleBest == 0 || d < res.SingleBest {
			res.SingleBest = d
		}
	}
	var streamed bytes.Buffer
	for i := 0; i < streamIters; i++ {
		streamed.Reset()
		verify := i == 0
		t0 := time.Now()
		n, err := c.ReadStream(view, coord, sub,
			ndsclient.StreamOpts{},
			func(off int64, chunk []byte) error {
				if verify {
					streamed.Write(chunk)
				}
				return nil
			})
		d := time.Since(t0)
		if err != nil {
			return streamResult{}, err
		}
		if n != int64(total) {
			return streamResult{}, fmt.Errorf("delivered %d bytes, want %d", n, total)
		}
		if verify && !bytes.Equal(streamed.Bytes(), data) {
			return streamResult{}, fmt.Errorf("streamed bytes differ from written data")
		}
		if res.StreamBest == 0 || d < res.StreamBest {
			res.StreamBest = d
		}
	}
	return res, nil
}

// runStream is the -stream CLI mode: measure how much a single connection
// gains from the windowed ReadStream pipeline over one whole-partition read.
// With -net it targets an external server; otherwise it self-hosts one on a
// private unix socket.
func runStream(addr string) {
	cleanup := func() {}
	if addr == "" {
		var err error
		_, addr, cleanup, err = selfHostedServer(
			nds.Options{Mode: nds.ModeHardware, CapacityHint: 64 << 20},
			ndsserver.Config{}, "ndsbench-stream")
		if err != nil {
			fatalf("stream: %v", err)
		}
	}
	defer cleanup()

	fmt.Println("\n=== Single-connection streaming read ===")
	fmt.Printf("partition %dx%d x%dB = %.1f MiB  window %d\n",
		streamRows, streamCols, streamElem,
		float64(streamRows*streamCols*streamElem)/(1<<20), ndsclient.DefaultStreamWindow)
	res, err := measureStream(addr)
	if err != nil {
		fatalf("stream: %v", err)
	}
	mbps := func(d time.Duration) float64 { return float64(res.Bytes) / d.Seconds() / 1e6 }
	fmt.Printf("whole-partition read: %8v  %7.1f MB/s\n", res.SingleBest.Round(time.Microsecond), mbps(res.SingleBest))
	fmt.Printf("windowed ReadStream:  %8v  %7.1f MB/s  (%.2fx)\n",
		res.StreamBest.Round(time.Microsecond), mbps(res.StreamBest),
		float64(res.SingleBest)/float64(res.StreamBest))
}
