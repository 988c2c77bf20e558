package stl

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// TestStreamCopy holds streamCopy to copy at every destination offset within
// a cache line, for lengths around a line, a vector and a page, from a source
// at a shifting offset, on both paths: dst[:n] must read as copy leaves it,
// and no byte of dst's buffer outside it may change.
func TestStreamCopy(t *testing.T) {
	check := func(t *testing.T) {
		const guard = streamLine
		rng := rand.New(rand.NewSource(47))
		src := make([]byte, 4096+2*streamLine)
		rng.Read(src)
		buf := make([]byte, 4096+4*streamLine)
		want := make([]byte, len(buf))
		line := int(-uintptr(unsafe.Pointer(&buf[0])) & (streamLine - 1)) // buf[line] starts a line
		for off := 0; off < streamLine; off++ {
			for _, n := range []int{0, 1, 31, 127, 128, 255, 256, 257, 2048, 4095, 4096} {
				for i := range buf {
					buf[i], want[i] = 0xA5, 0xA5
				}
				at, from := line+guard+off, (off*37)%streamLine
				streamCopy(buf[at:at+n], src[from:from+n+1])
				storeFence()
				copy(want[at:at+n], src[from:])
				if !bytes.Equal(buf, want) {
					i := 0
					for buf[i] == want[i] {
						i++
					}
					t.Fatalf("offset %d, %d bytes: byte %d of the buffer (dst starts at %d) is %#x, want %#x", off, n, i, at, buf[i], want[i])
				}
			}
		}
	}
	t.Run("vector", check)
	onGoClassifiers(t, check)
}

// BenchmarkStreamCopy fills 256 page frames as the write path does, 1 MiB of
// payload in 2 KiB pieces and one fence, on both paths. The frames are drawn
// in turn from a pool twice the size of a 32 MiB last-level cache, so each op
// writes frames long out of cache, as recycled ones are.
func BenchmarkStreamCopy(b *testing.B) {
	const page, piece, frames = 4096, 2048, 256
	for _, path := range []string{"vector", "go"} {
		b.Run(path, func(b *testing.B) {
			if path == "vector" && !useAVX2 {
				b.Skip("no store kernel on this CPU or in this build")
			}
			if path == "go" {
				defer goClassifiers()()
			}
			pool := bytes.Repeat([]byte{1}, 64<<20) // touched, so no op takes a page fault
			payload := make([]byte, frames*page)
			rand.New(rand.NewSource(1)).Read(payload)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			next := 0
			for i := 0; i < b.N; i++ {
				for f := 0; f < frames; f++ {
					frame := pool[next : next+page]
					next = (next + page) % len(pool)
					for p := 0; p < page; p += piece {
						streamCopy(frame[p:p+piece], payload[f*page+p:])
					}
				}
				storeFence()
			}
		})
	}
}
