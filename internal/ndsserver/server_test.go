package ndsserver_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
	"nds/internal/proto"
)

// startServer boots a device and a server on a unix socket, with cleanup that
// asserts a clean drain.
func startServer(t testing.TB, cfg ndsserver.Config) (*nds.Device, *ndsserver.Server, string) {
	t.Helper()
	return serveDevice(t, nds.Options{Mode: nds.ModeHardware, CapacityHint: 16 << 20}, cfg)
}

// serveDevice is startServer with caller-chosen device options.
func serveDevice(t testing.TB, opts nds.Options, cfg ndsserver.Config) (*nds.Device, *ndsserver.Server, string) {
	t.Helper()
	dev, err := nds.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := ndsserver.New(dev, cfg)
	path := filepath.Join(t.TempDir(), "nds.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; !errors.Is(err, ndsserver.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		dev.Close()
	})
	return dev, srv, "unix:" + path
}

func dial(t testing.TB, addr string) *ndsclient.Client {
	t.Helper()
	c, err := ndsclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerRoundTrip drives the full command set through a live socket:
// create, write, read back, stats opcodes, close, delete.
func TestServerRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, ndsserver.Config{})
	c := dial(t, addr)

	space, view, err := c.CreateSpace(4, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8*8*4)
	for i := range want {
		want[i] = byte(i)
	}
	if err := c.Write(view, []int64{1, 1}, []int64{8, 8}, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(view, []int64{1, 1}, []int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("read returned different bytes than written")
	}
	// A second view over the same connection is an independent stream.
	view2, err := c.OpenView(space, 4, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Read(view2, []int64{1, 1}, []int64{8, 8}); err != nil || string(got) != string(want) {
		t.Fatalf("read through second view: %v", err)
	}
	if _, err := c.Reliability(); err != nil {
		t.Fatalf("get_reliability: %v", err)
	}
	if _, err := c.CacheStats(); err != nil {
		t.Fatalf("get_cache_stats: %v", err)
	}
	if err := c.CloseView(view2); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseView(view); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSpace(space); err != nil {
		t.Fatal(err)
	}
}

// TestServerViewLifecycle runs the view-lifecycle sequences from
// exec_lifecycle_test.go through a live socket: the wire statuses must be
// identical whether Exec is called in-process or reached over a connection.
func TestServerViewLifecycle(t *testing.T) {
	dev, _, addr := startServer(t, ndsserver.Config{})
	c := dial(t, addr)

	t.Run("read and close after delete_space", func(t *testing.T) {
		space, view, err := c.CreateSpace(4, []int64{32, 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DeleteSpace(space); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); !ndsclient.IsStatus(err, proto.StatusUnknownView) {
			t.Errorf("stale read err = %v, want unknown view", err)
		}
		if err := c.CloseView(view); !ndsclient.IsStatus(err, proto.StatusUnknownView) {
			t.Errorf("stale close err = %v, want unknown view", err)
		}
		if err := c.DeleteSpace(space); !ndsclient.IsStatus(err, proto.StatusUnknownSpace) {
			t.Errorf("double delete err = %v, want unknown space", err)
		}
		if got := dev.OpenViews(); got != 0 {
			t.Errorf("registry size = %d, want 0", got)
		}
	})

	t.Run("element size validation", func(t *testing.T) {
		space, view, err := c.CreateSpace(4, []int64{32, 32})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenView(space, 8, []int64{32, 32}); !ndsclient.IsStatus(err, proto.StatusInvalidField) {
			t.Errorf("mismatched elem size err = %v, want invalid field", err)
		}
		if _, err := c.OpenView(space, 0, []int64{32, 32}); err != nil {
			t.Errorf("unspecified elem size: %v", err)
		}
		if _, err := c.OpenView(space, 4, []int64{32, 32}); err != nil {
			t.Errorf("matching elem size: %v", err)
		}
		_ = view
	})

	t.Run("unknown opcode", func(t *testing.T) {
		raw := proto.NewRead(1, 0).Marshal()
		raw[0] = 0x55
		resp, err := c.Do(raw, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cpl.Status != proto.StatusUnsupportedOp {
			t.Errorf("status = %v, want unsupported opcode", resp.Cpl.Status)
		}
	})
}

// TestServerGracefulDrain is the zero-dropped-in-flight proof: workers across
// many connections have requests in flight when Shutdown begins, every one of
// those requests completes OK, and Shutdown returns nil.
func TestServerGracefulDrain(t *testing.T) {
	_, srv, addr := startServer(t, ndsserver.Config{DrainGrace: 2 * time.Second})

	const conns = 8
	const perConn = 40
	clients := make([]*ndsclient.Client, conns)
	views := make([]uint32, conns)
	for i := range clients {
		clients[i] = dial(t, addr)
		_, v, err := clients[i].CreateSpace(4, []int64{32, 32})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	var started, wg sync.WaitGroup
	started.Add(conns)
	errs := make(chan error, conns*perConn)
	for i := range clients {
		wg.Add(1)
		go func(c *ndsclient.Client, view uint32) {
			defer wg.Done()
			for j := 0; j < perConn; j++ {
				if j == 1 {
					started.Done() // at least one request completed; more follow
				}
				if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); err != nil {
					errs <- err
				}
			}
		}(clients[i], views[i])
	}

	// Begin the drain while every connection is mid-burst.
	started.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during burst: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request dropped during drain: %v", err)
	}
	if st := srv.Stats(); st.Requests < conns*perConn {
		t.Errorf("requests executed = %d, want >= %d", st.Requests, conns*perConn)
	}
}

// TestServerConnLimit: connections beyond MaxConns are closed, not queued.
func TestServerConnLimit(t *testing.T) {
	_, srv, addr := startServer(t, ndsserver.Config{MaxConns: 1})

	c1 := dial(t, addr)
	if _, _, err := c1.CreateSpace(4, []int64{16}); err != nil {
		t.Fatal(err)
	}
	// The second connection is accepted by the kernel but closed by the
	// server; its first round trip fails.
	c2 := dial(t, addr)
	if _, _, err := c2.CreateSpace(4, []int64{16}); err == nil {
		t.Fatal("request on over-limit connection succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejected counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
	// The first connection is unaffected.
	if _, _, err := c1.CreateSpace(4, []int64{16}); err != nil {
		t.Fatalf("in-limit connection broken by rejection: %v", err)
	}
}

// TestServerBackpressure: far more pipelined requests than the in-flight
// limit all complete — the reader stalls instead of dropping or deadlocking.
func TestServerBackpressure(t *testing.T) {
	_, _, addr := startServer(t, ndsserver.Config{MaxInFlight: 2})
	c := dial(t, addr)
	_, view, err := c.CreateSpace(4, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Read(view, []int64{0, 0}, []int64{8, 8}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined read failed under backpressure: %v", err)
	}
}

// TestServerCleansViewsOnDisconnect: a client that vanishes without closing
// its views leaks nothing — the server retires them on teardown.
func TestServerCleansViewsOnDisconnect(t *testing.T) {
	dev, _, addr := startServer(t, ndsserver.Config{})
	c := dial(t, addr)
	space, _, err := c.CreateSpace(4, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.OpenView(space, 4, []int64{32, 32}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.OpenViews(); got != 4 {
		t.Fatalf("registry size = %d, want 4", got)
	}
	c.Close() // abrupt: no CloseView, no DeleteSpace
	deadline := time.Now().Add(5 * time.Second)
	for dev.OpenViews() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registry size stuck at %d after disconnect, want 0", dev.OpenViews())
		}
		time.Sleep(time.Millisecond)
	}
	// The space itself survives its client.
	c2 := dial(t, addr)
	if _, err := c2.OpenView(space, 4, []int64{32, 32}); err != nil {
		t.Fatalf("space did not survive client disconnect: %v", err)
	}
}

// TestServerOversizedFrame: a length prefix beyond MaxFrameBytes drops the
// connection (length-prefixed streams cannot resynchronize past a bad frame).
func TestServerOversizedFrame(t *testing.T) {
	// Payload pages alone are 4 KB, so the cap must clear small commands
	// while staying under the 16 KB write below.
	_, srv, addr := startServer(t, ndsserver.Config{MaxFrameBytes: 8192})
	c := dial(t, addr)
	_, view, err := c.CreateSpace(4, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Write(view, []int64{0, 0}, []int64{64, 64}, make([]byte, 64*64*4))
	if err == nil {
		t.Fatal("oversized frame was served")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Drops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drop counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerIdleTimeout: a connection that goes quiet past ReadTimeout is
// dropped and its views retired.
func TestServerIdleTimeout(t *testing.T) {
	dev, _, addr := startServer(t, ndsserver.Config{ReadTimeout: 50 * time.Millisecond})
	c := dial(t, addr)
	if _, _, err := c.CreateSpace(4, []int64{16, 16}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for dev.OpenViews() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection's views never retired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
