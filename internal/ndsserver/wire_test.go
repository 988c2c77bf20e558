package ndsserver_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// wirePlane is a served 256x256 uint32 space filled in 64x64 tiles — the
// 16 KiB round trip net_mixed makes — with one connection and view open.
type wirePlane struct {
	dev  *nds.Device
	c    *ndsclient.Client
	view uint32
	tile []byte
}

var tileSub = []int64{64, 64}

func newWirePlane(tb testing.TB) *wirePlane {
	tb.Helper()
	p := &wirePlane{tile: bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 64*64)}
	dev, _, addr := startServer(tb, ndsserver.Config{})
	p.dev, p.c = dev, dial(tb, addr)
	_, view, err := p.c.CreateSpace(4, []int64{256, 256})
	if err != nil {
		tb.Fatal(err)
	}
	p.view = view
	for i := 0; i < 16; i++ {
		p.write(tb, i)
	}
	return p
}

func (p *wirePlane) read(tb testing.TB, i int) {
	data, err := p.c.Read(p.view, []int64{int64(i/4) % 4, int64(i) % 4}, tileSub)
	if err != nil {
		tb.Fatal(err)
	}
	if len(data) != len(p.tile) {
		tb.Fatalf("read %d B, want %d", len(data), len(p.tile))
	}
}

func (p *wirePlane) write(tb testing.TB, i int) {
	if err := p.c.Write(p.view, []int64{int64(i/4) % 4, int64(i) % 4}, tileSub, p.tile); err != nil {
		tb.Fatal(err)
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestWireRoundTripAllocs gates what one 16 KiB round trip allocates, client
// and server together, in the steady state: the payload Client.Read hands its
// caller and next to nothing else — the request body, the response frame, the
// coordinate page and the completion slot are all pooled, and the request
// runs on a parked worker. A write allocates what Space.Write itself does,
// measured here on the same device without the wire, plus at most as much.
func TestWireRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what the wire pools")
	}
	p := newWirePlane(t)
	const warm, runs = 200, 2000
	perOp := func(op func(testing.TB, int)) float64 {
		for i := 0; i < warm; i++ {
			op(t, i)
		}
		before := mallocs()
		for i := 0; i < runs; i++ {
			op(t, i)
		}
		return float64(mallocs()-before) / runs
	}
	reads := perOp(p.read)
	writes := perOp(p.write)

	id, err := p.dev.CreateSpace(4, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.dev.OpenSpace(id, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	device := perOp(func(tb testing.TB, i int) {
		if _, err := direct.Write([]int64{int64(i/4) % 4, int64(i) % 4}, tileSub, p.tile); err != nil {
			tb.Fatal(err)
		}
	})
	t.Logf("allocations per 16 KiB round trip: read %.2f, write %.2f (Space.Write alone %.2f)", reads, writes, device)
	if reads > 4 {
		t.Errorf("%.2f allocations per read round trip, want at most 4 (one is the payload)", reads)
	}
	if writes > device+4 {
		t.Errorf("%.2f allocations per write round trip, want at most %.2f (Space.Write) + 4", writes, device)
	}
}

// BenchmarkWireRoundTrip runs the wire path CI's bench smoke would otherwise
// never enter: one 16 KiB tile per round trip over a unix socket, reads and
// writes at depth 1 and reads with eight in flight on one connection.
func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("read16k", func(b *testing.B) {
		p := newWirePlane(b)
		b.SetBytes(int64(len(p.tile)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.read(b, i)
		}
	})
	b.Run("write16k", func(b *testing.B) {
		p := newWirePlane(b)
		b.SetBytes(int64(len(p.tile)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.write(b, i)
		}
	})
	b.Run("depth8", func(b *testing.B) {
		p := newWirePlane(b)
		b.SetBytes(int64(len(p.tile)))
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < b.N; i += 8 {
					data, err := p.c.Read(p.view, []int64{int64(i/4) % 4, int64(i) % 4}, tileSub)
					if err != nil || len(data) != len(p.tile) {
						b.Errorf("read %d: %d B, %v", i, len(data), err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
