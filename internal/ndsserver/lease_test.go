package ndsserver_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nds"
	"nds/internal/ndsclient"
	"nds/internal/ndsserver"
)

// TestFrameLease pins the contract request pooling rests on: Device.Exec and
// ExecRead keep no reference to a request's payload page or write data after
// they return. A connection writes two partitions — one of whole pages, one
// small enough that write buffering stages it — then sends 64 requests of
// other sizes, which recycle and overwrite the pooled bodies the two writes
// arrived in, and reads both back byte-exact. Two connections do so at once
// on each device configuration whose write path stages or transforms the
// data; any path that kept the slice instead of its bytes returns the noise.
func TestFrameLease(t *testing.T) {
	base := nds.Options{Mode: nds.ModeHardware, CapacityHint: 16 << 20}
	configs := []struct {
		name string
		with func(*nds.Options)
	}{
		{"plain", func(*nds.Options) {}},
		{"write-buffered", func(o *nds.Options) { o.WriteBuffering = true }},
		{"compressed", func(o *nds.Options) { o.Compress = true }},
		{"encrypted", func(o *nds.Options) { o.EncryptionKey = bytes.Repeat([]byte{0x42}, 32) }},
		{"zero-elided", func(o *nds.Options) { o.ZeroPageElision = true }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := base
			cfg.with(&opts)
			_, _, addr := serveDevice(t, opts, ndsserver.Config{})
			var wg sync.WaitGroup
			for conn := 0; conn < 2; conn++ {
				c := dial(t, addr)
				wg.Add(1)
				go func(conn int) {
					defer wg.Done()
					if err := leaseRound(c, byte(conn)); err != nil {
						t.Errorf("connection %d: %v", conn, err)
					}
				}(conn)
			}
			wg.Wait()
		})
	}
}

// leaseRound is one connection's part of TestFrameLease, on a space of its
// own.
func leaseRound(c *ndsclient.Client, salt byte) error {
	_, view, err := c.CreateSpace(4, []int64{256, 256})
	if err != nil {
		return err
	}
	// The whole-page partition is half zeros, so zero-page elision has pages
	// to elide; the small one is a sixteenth of a flash page.
	big := make([]byte, 64*64*4)
	for i := len(big) / 2; i < len(big); i++ {
		big[i] = byte(i*7) ^ salt
	}
	small := make([]byte, 8*8*4)
	for i := range small {
		small[i] = byte(i*13) ^ salt
	}
	if err := c.Write(view, []int64{0, 0}, []int64{64, 64}, big); err != nil {
		return err
	}
	if err := c.Write(view, []int64{8, 0}, []int64{8, 8}, small); err != nil {
		return err
	}
	// Noise: writes and reads of three other shapes, all in rows 128 and
	// up, away from both partitions.
	shapes := [][]int64{{32, 32}, {16, 64}, {64, 16}}
	for i := 0; i < 64; i++ {
		sub := shapes[i%len(shapes)]
		coord := []int64{128/sub[0] + int64(i%2), int64(i/2) % (256 / sub[1])}
		if i%4 == 3 {
			if _, err := c.Read(view, coord, sub); err != nil {
				return fmt.Errorf("noise read %d: %w", i, err)
			}
			continue
		}
		noise := bytes.Repeat([]byte{0xEE ^ byte(i)}, int(sub[0]*sub[1]*4))
		if err := c.Write(view, coord, sub, noise); err != nil {
			return fmt.Errorf("noise write %d: %w", i, err)
		}
	}
	for _, p := range []struct {
		coord, sub []int64
		want       []byte
	}{{[]int64{0, 0}, []int64{64, 64}, big}, {[]int64{8, 0}, []int64{8, 8}, small}} {
		got, err := c.Read(view, p.coord, p.sub)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, p.want) {
			return fmt.Errorf("partition %v/%v read back differs from what was written: a recycled request buffer reached the device", p.coord, p.sub)
		}
	}
	return nil
}
