package ftl

import (
	"fmt"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// ReadPages reads n logical pages starting at lpn, all issued at time at (the
// controller fans the request out to the channels). It returns the assembled
// bytes (nil on a phantom device) and the completion time of the slowest
// page.
func (f *FTL) ReadPages(at sim.Time, lpn, n int64) ([]byte, sim.Time, error) {
	if lpn < 0 || n < 0 || lpn+n > f.logicalPages {
		return nil, at, fmt.Errorf("ftl: read [%d,%d) beyond logical capacity %d pages", lpn, lpn+n, f.logicalPages)
	}
	// The mapped pages go to the device as one batch (timing-equivalent to a
	// page-by-page loop by nvm.ReadWords' contract) as the words the map
	// holds; an unwritten LBA reads as zeros with no device work.
	words, pos := f.readWords[:0], f.readPos[:0]
	for i := int64(0); i < n; i++ {
		if w := f.l2p[lpn+i]; w != 0 {
			words = append(words, w-1)
			pos = append(pos, i)
		}
	}
	for len(f.readData) < len(words) {
		f.readData = append(f.readData, nil)
	}
	f.readWords, f.readPos = words, pos
	done, err := f.dev.ReadWords(at, words, f.readData)
	if err != nil {
		return nil, at, err
	}
	if f.dev.Phantom() {
		return nil, done, nil
	}
	ps := int64(f.geo.PageSize)
	buf := make([]byte, n*ps)
	for k, i := range pos {
		copy(buf[i*ps:], f.readData[k])
		f.readData[k] = nil
	}
	return buf, done, nil
}

// WritePages writes len(data)/PageSize logical pages starting at lpn. When
// data is nil (phantom workloads) the same mapping and timing work happens
// without byte storage. Pages of one request are issued at the same arrival
// time, each as a one-op program batch once its page is allocated, since
// allocating the next may collect the die first; the returned completion is
// the slowest page (or GC stall).
func (f *FTL) WritePages(at sim.Time, lpn int64, data []byte, n int64) (sim.Time, error) {
	if data != nil {
		if int64(len(data))%int64(f.geo.PageSize) != 0 {
			return at, fmt.Errorf("ftl: write of %d bytes is not page-aligned (page=%d)", len(data), f.geo.PageSize)
		}
		n = int64(len(data)) / int64(f.geo.PageSize)
	}
	if lpn < 0 || n < 0 || lpn+n > f.logicalPages {
		return at, fmt.Errorf("ftl: write [%d,%d) beyond logical capacity %d pages", lpn, lpn+n, f.logicalPages)
	}
	done := at
	for i := int64(0); i < n; i++ {
		l := lpn + i
		ch, bk := f.stripe(l)
		p, readyAt, err := f.allocate(at, ch, bk)
		if err != nil {
			return at, err
		}
		var page []byte
		if data != nil {
			page = data[i*int64(f.geo.PageSize) : (i+1)*int64(f.geo.PageSize)]
		}
		d, err := f.dev.ProgramPages([]nvm.ProgramOp{{At: readyAt, P: p, Data: page}})
		if err != nil {
			return at, err
		}
		f.unmapLogical(l) // overwrite invalidates the old physical page
		f.mapPage(l, p)
		f.hostProg++
		done = sim.Max(done, d)
	}
	return done, nil
}

// Read reads n bytes from byte offset off, page-aligned internally.
func (f *FTL) Read(at sim.Time, off, n int64) ([]byte, sim.Time, error) {
	ps := int64(f.geo.PageSize)
	first := off / ps
	last := (off + n + ps - 1) / ps
	buf, done, err := f.ReadPages(at, first, last-first)
	if err != nil {
		return nil, done, err
	}
	if buf == nil {
		return nil, done, nil
	}
	start := off - first*ps
	return buf[start : start+n], done, nil
}

// Trim invalidates n logical pages starting at lpn.
func (f *FTL) Trim(lpn, n int64) error {
	if lpn < 0 || n < 0 || lpn+n > f.logicalPages {
		return fmt.Errorf("ftl: trim [%d,%d) beyond logical capacity", lpn, lpn+n)
	}
	for i := int64(0); i < n; i++ {
		f.unmapLogical(lpn + i)
	}
	return nil
}
