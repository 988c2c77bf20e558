// Package ndsclient is the host-side library for the ndsd wire protocol:
// it frames §5.3.1 submission entries onto a TCP or unix-socket connection
// (internal/proto framing) and matches pipelined completions back to
// callers by sequence number.
//
// A Client is safe for concurrent use. Each concurrent caller's request is
// in flight independently — the server executes pipelined commands
// concurrently and may complete them out of order — so the natural pattern
// is one goroutine per open view, mirroring the in-process API's
// one-stream-per-view model.
package ndsclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"nds/internal/proto"
)

// StatusError is a non-OK device completion surfaced as a Go error.
type StatusError struct {
	Op     string
	Status proto.Status
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("ndsclient: %s: %s", e.Op, e.Status)
}

// IsStatus reports whether err is a StatusError carrying st.
func IsStatus(err error, st proto.Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == st
}

// Client is one connection to an ndsd server.
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serializes request frames
	bw  *bufio.Writer

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan proto.Response
	err     error // terminal receive error; set once
	closed  bool
}

// callPool recycles the completion slot of a round trip: the channel the
// reader delivers the response on, or closes when the connection fails. A
// slot whose response arrived goes back to the pool; one that was closed, or
// whose outcome is unknown, is left to the collector.
var callPool = sync.Pool{New: func() any { return make(chan proto.Response, 1) }}

// pagePool recycles the 4 KB page a coordinate-addressed command sends: the
// page is dead once the request is framed, so the next command clears and
// reuses it instead of allocating a zeroed one.
var pagePool = sync.Pool{New: func() any { return new([proto.PageSize]byte) }}

// Dial connects to an ndsd server. addr accepts "unix:/path/to/sock",
// "tcp:host:port", or a bare "host:port" (TCP).
func Dial(addr string) (*Client, error) {
	network, target := "tcp", addr
	switch {
	case strings.HasPrefix(addr, "unix:"):
		network, target = "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		target = strings.TrimPrefix(addr, "tcp:")
	}
	nc, err := net.Dial(network, target)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection. The Client owns nc.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]chan proto.Response),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down. In-flight calls fail with the
// connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.nc.Close()
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		resp, err := proto.ReadResponse(br, 0)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// fail marks the connection dead and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed && (errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)) {
		err = net.ErrClosed
	}
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan proto.Response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Do sends one raw command round trip: submission entry, payload page, and
// write data out; the completion and read payload back. Callers wanting
// typed errors use the helpers below; Do itself surfaces every completion,
// OK or not.
func (c *Client) Do(cmd [proto.CommandSize]byte, payload, data []byte) (proto.Response, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return proto.Response{}, err
	}
	if c.closed {
		c.mu.Unlock()
		return proto.Response{}, net.ErrClosed
	}
	c.seq++
	seq := c.seq
	ch := callPool.Get().(chan proto.Response)
	c.pending[seq] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := proto.WriteRequest(c.bw, proto.Request{Seq: seq, Cmd: cmd, Payload: payload, Data: data})
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return proto.Response{}, err
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return proto.Response{}, err
	}
	callPool.Put(ch)
	return resp, nil
}

// do runs one command and converts a non-OK completion into a StatusError.
func (c *Client) do(op string, cmd [proto.CommandSize]byte, payload, data []byte) (proto.Response, error) {
	resp, err := c.Do(cmd, payload, data)
	if err != nil {
		return proto.Response{}, fmt.Errorf("ndsclient: %s: %w", op, err)
	}
	if resp.Cpl.Status != proto.StatusOK {
		return resp, &StatusError{Op: op, Status: resp.Cpl.Status}
	}
	return resp, nil
}

// CreateSpace creates a new space (open_space with the create flag) and
// returns its identifier plus the producer view's dynamic ID.
func (c *Client) CreateSpace(elemSize int, dims []int64) (space, view uint32, err error) {
	page, err := proto.SpacePayload{ElemSize: elemSize, Dims: dims}.Marshal()
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.do("create_space", proto.NewOpenSpace(0, 0, true).Marshal(), page, nil)
	if err != nil {
		return 0, 0, err
	}
	return uint32(resp.Cpl.Result0), uint32(resp.Cpl.Result1), nil
}

// OpenView opens a view of an existing space with the given dimensionality.
// elemSize 0 skips element-size validation; a nonzero value must match the
// space's element size.
func (c *Client) OpenView(space uint32, elemSize int, dims []int64) (uint32, error) {
	page, err := proto.SpacePayload{ElemSize: elemSize, Dims: dims}.Marshal()
	if err != nil {
		return 0, err
	}
	resp, err := c.do("open_space", proto.NewOpenSpace(space, 0, false).Marshal(), page, nil)
	if err != nil {
		return 0, err
	}
	return uint32(resp.Cpl.Result1), nil
}

// paged runs one command whose payload is a 4 KB page: marshal encodes it
// into a pooled page, which goes back to the pool once the round trip is
// over (Do has framed it by then).
func (c *Client) paged(op string, cmd proto.Command, marshal func(page []byte) error, data []byte) (proto.Response, error) {
	page := pagePool.Get().(*[proto.PageSize]byte)
	defer pagePool.Put(page)
	if err := marshal(page[:]); err != nil {
		return proto.Response{}, err
	}
	return c.do(op, cmd.Marshal(), page[:], data)
}

// Read fetches the partition at coord/sub through an open view. The returned
// slice is the caller's to keep.
func (c *Client) Read(view uint32, coord, sub []int64) ([]byte, error) {
	resp, err := c.paged("nds_read", proto.NewRead(view, 0), proto.CoordPayload{Coord: coord, Sub: sub}.MarshalInto, nil)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Write stores data at the partition coord/sub through an open view.
func (c *Client) Write(view uint32, coord, sub []int64, data []byte) error {
	_, err := c.paged("nds_write", proto.NewWrite(view, 0), proto.CoordPayload{Coord: coord, Sub: sub}.MarshalInto, data)
	return err
}

// Scan executes a pushdown predicate scan over the partition at coord/sub
// through an open view: only matching (index, value) pairs cross the wire.
// The result is one page deep, its indexes one Elias–Fano code and its
// values packed to the width the request implies (proto.Layout.Capacity):
// over a 512×512 partition of 4-byte elements a page holds 769 matches of
// the full range and 4 068 of a one-value predicate, and never fewer than
// 271 — and a scan with more matches than fit reports the true total and a
// resume cursor (pass it as cursor to continue, 0 starts). max 0 fills the
// page. A server running with
// pushdown disabled answers StatusUnsupportedOp.
func (c *Client) Scan(view uint32, coord, sub []int64, lo, hi uint64, cursor int64, max uint32) (proto.ScanResultPayload, error) {
	pl := proto.ScanPayload{Coord: coord, Sub: sub, Lo: lo, Hi: hi, Cursor: cursor, Max: max}
	resp, err := c.paged("pushdown_scan", proto.NewScan(view, 0), pl.MarshalInto, nil)
	if err != nil {
		return proto.ScanResultPayload{}, err
	}
	return proto.UnmarshalScanResultPayload(resp.Data, pl)
}

// Reduce executes a pushdown reduction over the partition at coord/sub
// through an open view: only the scalar result (plus top-k entries for
// ReduceOpTopK) crosses the wire. pred non-nil restricts the reduction to
// elements in the inclusive range [pred[0], pred[1]]; for ReduceOpCount a
// nil pred counts nonzero elements. k names the top-k depth and must be zero
// for other ops.
func (c *Client) Reduce(view uint32, coord, sub []int64, op uint8, k uint32, pred *[2]uint64) (proto.ReduceResultPayload, error) {
	pl := proto.ReducePayload{Coord: coord, Sub: sub, Op: op, K: k}
	if pred != nil {
		pl.HasPred, pl.Lo, pl.Hi = true, pred[0], pred[1]
	}
	resp, err := c.paged("pushdown_reduce", proto.NewReduce(view, 0), pl.MarshalInto, nil)
	if err != nil {
		return proto.ReduceResultPayload{}, err
	}
	return proto.UnmarshalReduceResultPayload(resp.Data, pl)
}

// CloseView retires a dynamic view ID.
func (c *Client) CloseView(view uint32) error {
	_, err := c.do("close_space", proto.NewCloseSpace(view).Marshal(), nil, nil)
	return err
}

// DeleteSpace removes a space. The server retires every open view of it,
// this connection's and others', before the completion arrives.
func (c *Client) DeleteSpace(space uint32) error {
	_, err := c.do("delete_space", proto.NewDeleteSpace(space).Marshal(), nil, nil)
	return err
}

// Reliability fetches the device's fault/recovery report.
func (c *Client) Reliability() (proto.ReliabilityPayload, error) {
	resp, err := c.do("get_reliability", proto.NewReliability(0).Marshal(), nil, nil)
	if err != nil {
		return proto.ReliabilityPayload{}, err
	}
	return proto.UnmarshalReliabilityPayload(resp.Data)
}

// CacheStats fetches the device's building-block cache counters.
func (c *Client) CacheStats() (proto.CacheStatsPayload, error) {
	resp, err := c.do("get_cache_stats", proto.NewCacheStats(0).Marshal(), nil, nil)
	if err != nil {
		return proto.CacheStatsPayload{}, err
	}
	return proto.UnmarshalCacheStatsPayload(resp.Data)
}

// TenantStats fetches the device's per-tenant QoS accounting: one record per
// space (or space group) that has issued requests, truncated to a page if the
// device has more tenants than fit (Total carries the untruncated count).
// Empty when the server runs without tenant QoS.
func (c *Client) TenantStats() (proto.TenantStatsPayload, error) {
	resp, err := c.do("get_tenant_stats", proto.NewTenantStats(0).Marshal(), nil, nil)
	if err != nil {
		return proto.TenantStatsPayload{}, err
	}
	return proto.UnmarshalTenantStatsPayload(resp.Data)
}
