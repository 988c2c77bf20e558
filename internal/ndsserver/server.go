// Package ndsserver serves the §5.3.1 extended-NVMe command set over stream
// sockets (TCP and unix), framing submission entries with internal/proto's
// length-prefixed frames. It is the network face of an nds.Device: every
// connection is an independent host, every view a connection opens is an
// independent command stream over the device's per-view cursors, and
// commands pipelined on one connection execute concurrently (bounded by the
// in-flight limit) and complete out of order, matched to requests by
// sequence number.
//
// Resilience contract:
//
//   - Connection limit: at most MaxConns connections are served; beyond
//     that, accepted sockets are closed immediately.
//   - Deadlines: a connection idle past ReadTimeout, or one that cannot
//     absorb a response within WriteTimeout, is dropped.
//   - Backpressure: at most MaxInFlight requests per connection execute at
//     once; the reader stops pulling frames when the limit is reached, so a
//     flooding client queues in its own socket buffers, not in server
//     memory.
//   - Graceful drain: Shutdown stops accepting, lets every request already
//     received finish and its response flush, closes each connection's
//     remaining views, then closes the sockets. Requests in flight at
//     shutdown are never dropped.
//   - Cleanup: however a connection ends — clean EOF, timeout, drain, or
//     error — every view it still holds open is closed, so a dead client
//     leaks nothing in the device's view registry.
package ndsserver

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nds"
	"nds/internal/proto"
	"nds/internal/stl"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("ndsserver: server closed")

// Defaults for zero Config fields.
const (
	DefaultMaxConns      = 64
	DefaultMaxInFlight   = 32
	DefaultMaxFrameBytes = proto.DefaultMaxFrame
	DefaultReadTimeout   = 2 * time.Minute
	DefaultWriteTimeout  = 30 * time.Second
	DefaultDrainGrace    = 250 * time.Millisecond
)

// Config tunes a Server. Zero fields take the defaults above.
type Config struct {
	// MaxConns bounds simultaneously served connections.
	MaxConns int
	// MaxInFlight bounds concurrently executing requests per connection.
	MaxInFlight int
	// MaxFrameBytes bounds one request frame (a larger length prefix drops
	// the connection — a length-prefixed stream cannot resynchronize). It is
	// the request bound only; responses are bound by maxResponseData.
	MaxFrameBytes uint32
	// ReadTimeout is the longest a connection may sit idle between request
	// frames. Negative disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout is the longest one response write may take. Negative
	// disables the deadline.
	WriteTimeout time.Duration
	// DrainGrace is how long after Shutdown a connection keeps reading:
	// requests that arrive within the grace are still served, so a client
	// mid-burst sees responses for everything it managed to send.
	DrainGrace time.Duration
	// Logf, when non-nil, receives connection-level events (rejects,
	// malformed frames, timeouts). Printf-shaped.
	Logf func(format string, args ...any)
}

// maxResponseData bounds one response's payload, whatever MaxFrameBytes says
// about requests: it is what proto.WriteResponse will frame and what a client
// reading with the default limit will accept.
const maxResponseData = proto.DefaultMaxFrame

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = DefaultDrainGrace
	}
	return c
}

// Stats counts a server's lifetime activity.
type Stats struct {
	Accepted int64 // connections served
	Rejected int64 // connections closed at the limit
	Requests int64 // request frames executed
	Drops    int64 // connections dropped on error or timeout
}

// Server serves one nds.Device to any number of socket listeners.
type Server struct {
	dev *nds.Device
	cfg Config

	// phantom routes reads through the plain Exec path: a phantom device has
	// no payload to gather, so the zero-copy frame encoder buys nothing.
	phantom bool

	accepted atomic.Int64
	rejected atomic.Int64
	requests atomic.Int64
	drops    atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	draining  bool
	wg        sync.WaitGroup // one per live connection
}

// New builds a Server for dev. The caller retains ownership of dev: Shutdown
// drains connections but does not Close the device.
func New(dev *nds.Device, cfg Config) *Server {
	return &Server{
		dev:       dev,
		cfg:       cfg.withDefaults(),
		phantom:   dev.Phantom(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted: s.accepted.Load(),
		Rejected: s.rejected.Load(),
		Requests: s.requests.Load(),
		Drops:    s.drops.Load(),
	}
}

// Serve accepts connections on l until Shutdown or a listener error. It
// blocks; run one goroutine per listener to serve TCP and unix sockets at
// once. Always returns a non-nil error (ErrServerClosed after Shutdown).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		switch {
		case s.draining:
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		case len(s.conns) >= s.cfg.MaxConns:
			s.rejected.Add(1)
			s.mu.Unlock()
			s.logf("ndsserver: rejecting %v: connection limit %d reached", nc.RemoteAddr(), s.cfg.MaxConns)
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.conns[c] = struct{}{}
		s.accepted.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown gracefully drains the server: it stops accepting, tells every
// connection to finish what it has received (plus DrainGrace of further
// reads), waits for all responses to flush and all views to close, and
// returns nil. If ctx expires first, remaining connections are closed
// forcibly and the context's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// connDone unregisters a finished connection.
func (s *Server) connDone(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.wg.Done()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// conn is one served connection: a reader that unframes requests into pooled
// buffers and admits them, and up to MaxInFlight warm workers, each of which
// executes a request, writes its response under the write mutex, returns the
// buffer and parks for the next — so a request runs on a stack that is
// already grown and wakes one goroutine, not three. Request execution is
// concurrent, so responses interleave in completion order; the sequence
// number carries the correlation.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	inflight chan struct{} // admission semaphore: requests executing
	work     chan job      // reader -> a parked worker; closed when the reader ends
	workers  sync.WaitGroup

	wmu     sync.Mutex // serializes response frames on bw and nc
	bw      *bufio.Writer
	wqueued atomic.Int32 // responders waiting for wmu or holding it
	wfailed atomic.Bool  // a write failed; discard further responses

	draining atomic.Bool
	drainMu  sync.Mutex
	drainAt  time.Time // read deadline once draining

	viewMu sync.Mutex
	views  map[uint32]struct{} // views this connection opened, for cleanup
}

// job is one admitted request and the pooled buffer its Payload and Data
// alias. The buffer is on lease to the worker until handle returns.
type job struct {
	req  proto.Request
	body *frameBuf
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		bw:       bufio.NewWriterSize(nc, 64<<10),
		inflight: make(chan struct{}, s.cfg.MaxInFlight),
		work:     make(chan job),
		views:    make(map[uint32]struct{}),
	}
}

// beginDrain flips the connection into drain mode: reads continue only for
// DrainGrace, then the read loop ends and in-flight requests finish.
func (c *conn) beginDrain() {
	c.drainMu.Lock()
	c.drainAt = time.Now().Add(c.srv.cfg.DrainGrace)
	c.drainMu.Unlock()
	c.draining.Store(true)
	// Wake a reader blocked in ReadRequest; the loop re-arms the deadline
	// to the grace window on its way out of a timeout only when not
	// draining, so this one sticks.
	c.nc.SetReadDeadline(c.drainAt)
}

func (c *conn) serve() {
	defer c.srv.connDone(c)
	c.readLoop()
	close(c.work)    // parked workers exit; busy ones finish first
	c.workers.Wait() // every admitted request has written its response
	c.closeViews()
	c.nc.Close()
}

// readLoop admits request frames until EOF, error, timeout, or drain.
func (c *conn) readLoop() {
	started := 0 // workers started; never more than MaxInFlight
	for {
		if to := c.srv.cfg.ReadTimeout; to > 0 && !c.draining.Load() {
			c.nc.SetReadDeadline(time.Now().Add(to))
		}
		// Re-check after arming the idle deadline: beginDrain stores the
		// flag before poking its own (shorter) deadline, so whichever order
		// the two SetReadDeadline calls land in, the drain deadline wins.
		if c.draining.Load() {
			c.drainMu.Lock()
			at := c.drainAt
			c.drainMu.Unlock()
			c.nc.SetReadDeadline(at)
		}
		j := job{body: bodyPool.Get().(*frameBuf)}
		var err error
		j.req, j.body.b, err = proto.ReadRequestInto(c.br, c.srv.cfg.MaxFrameBytes, j.body.b)
		if err != nil {
			j.body.release(&bodyPool)
			var ne net.Error
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				// Clean goodbye (or a teardown we initiated).
			case c.draining.Load():
				// Drain grace expired mid-read; the admitted work still
				// finishes below.
			case errors.As(err, &ne) && ne.Timeout():
				c.srv.drops.Add(1)
				c.srv.logf("ndsserver: %v: idle past read timeout", c.nc.RemoteAddr())
			default:
				c.srv.drops.Add(1)
				c.srv.logf("ndsserver: %v: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.inflight <- struct{}{} // backpressure: cap concurrent execution
		select {
		case c.work <- j: // a parked worker takes it, stack already grown
		default:
			if started < cap(c.inflight) {
				started++
				c.workers.Add(1)
				go c.worker(j)
			} else {
				// Every worker exists and none is parked yet, but this
				// request holds a slot, so one of them is past its release
				// and about to park.
				c.work <- j
			}
		}
	}
}

// worker executes the request it was started for, then every request the
// reader hands it, until the reader closes the hand-off channel. Between
// requests it is parked on that channel with its stack as deep as the last
// request left it, so the next one does not pay to grow it again (the
// collector halves a parked stack once a cycle; see DESIGN.md).
func (c *conn) worker(j job) {
	defer c.workers.Done()
	for ok := true; ok; j, ok = <-c.work {
		c.handle(j.req)
		j.body.release(&bodyPool) // the lease on req.Payload and req.Data ends
		<-c.inflight
	}
}

// handle executes one request against the device and writes its response.
// nds_read on a data-bearing device takes the zero-copy path: the response
// frame is encoded straight from the device's segment lease, so the payload
// is copied once (device storage -> frame) instead of assembled into a
// partition buffer and re-copied by the frame writer. The first command byte
// is the entry's opcode (word 0 is little-endian with the opcode in bits
// 7:0), so routing needs no full decode; ExecRead re-validates.
func (c *conn) handle(req proto.Request) {
	c.srv.requests.Add(1)
	if proto.Opcode(req.Cmd[0]) == proto.OpRead && !c.srv.phantom {
		c.handleRead(req)
		return
	}
	data, cpl, _, _ := c.srv.dev.Exec(req.Cmd, req.Payload, req.Data)
	c.trackViews(req.Cmd, cpl)
	c.respond(proto.Response{Seq: req.Seq, Cpl: cpl, Data: data}, nil)
}

// handleRead executes one nds_read through Device.ExecRead, gathering the
// segment lease into a pooled pre-encoded response frame. The lease ends
// when ExecRead returns, before respond: no device lock is ever held across
// a socket write.
func (c *conn) handleRead(req proto.Request) {
	var frame *frameBuf
	oversize := false
	cpl, _, err := c.srv.dev.ExecRead(req.Cmd, req.Payload, func(want int64, segs []nds.Segment) error {
		if want > maxResponseData {
			// The assembled path would hit this at WriteResponse; failing the
			// gather keeps the outcome (connection teardown) identical without
			// staging an unsendable payload.
			oversize = true
			return proto.ErrFrameTooLarge
		}
		frame = framePool.Get().(*frameBuf)
		// The pooled frame holds a previous response's bytes; Gather
		// overwrites every one of them.
		stl.Gather(frame.sized(proto.ResponseHeaderLen + int(want))[proto.ResponseHeaderLen:], segs)
		return nil
	})
	if oversize {
		c.failWrite(proto.ErrFrameTooLarge)
		return
	}
	if err != nil || cpl.Status != proto.StatusOK || frame == nil {
		// Command-level failure: fn never ran (or its work is abandoned), and
		// the completion status carries the story like any other response.
		frame.release(&framePool)
		c.respond(proto.Response{Seq: req.Seq, Cpl: cpl}, nil)
		return
	}
	proto.PutResponseHeader(frame.b, req.Seq, cpl, len(frame.b)-proto.ResponseHeaderLen)
	c.respond(proto.Response{}, frame)
}

// trackViews keeps the set of views this connection opened, so conn teardown
// can retire what the client left behind. delete_space needs no bookkeeping
// here: the device itself retires all views of a deleted space.
func (c *conn) trackViews(raw [proto.CommandSize]byte, cpl proto.Completion) {
	if cpl.Status != proto.StatusOK {
		return
	}
	// Route on the opcode byte: every nds_write comes through here, and only
	// an open or a close is worth decoding.
	switch proto.Opcode(raw[0]) {
	case proto.OpOpenSpace:
		c.viewMu.Lock()
		c.views[uint32(cpl.Result1)] = struct{}{}
		c.viewMu.Unlock()
	case proto.OpCloseSpace:
		cmd, err := proto.Unmarshal(raw)
		if err != nil {
			return
		}
		c.viewMu.Lock()
		delete(c.views, cmd.Target())
		c.viewMu.Unlock()
	}
}

// closeViews retires every view the connection still holds. Views already
// retired (close_space raced with delete_space, or the device retired them)
// answer StatusUnknownView, which is exactly what "nothing to do" looks
// like.
func (c *conn) closeViews() {
	c.viewMu.Lock()
	ids := make([]uint32, 0, len(c.views))
	for id := range c.views {
		ids = append(ids, id)
	}
	c.views = make(map[uint32]struct{})
	c.viewMu.Unlock()
	for _, id := range ids {
		c.srv.dev.Exec(proto.NewCloseSpace(id).Marshal(), nil, nil)
	}
}

// respond writes one completion to the socket, in whatever order workers
// finish: either a structured Response for proto.WriteResponse, or — when
// frame is non-nil — a pre-encoded frame (header plus gathered payload)
// written verbatim and then released, also on the post-failure discard path.
// After a write error the connection is unrecoverable: further responses are
// discarded so workers never block on a dead socket.
//
// Flushing is batched by wqueued, the count of responders waiting for the
// mutex or holding it: a responder flushes only when nobody is queued behind
// it, so a burst of completions leaves in one syscall and a lone completion
// is not delayed. Whoever brings the count to zero has written after everyone
// counted before it, so nothing is left in the buffer. A lone frame meeting
// an empty buffer skips the buffer too: one copy, flash to socket.
func (c *conn) respond(resp proto.Response, frame *frameBuf) {
	c.wqueued.Add(1)
	c.wmu.Lock()
	err := c.writeLocked(resp, frame)
	c.wqueued.Add(-1) // before the unlock: the next holder must not count us
	c.wmu.Unlock()
	frame.release(&framePool)
	if err != nil {
		c.failWrite(err)
	}
}

// writeLocked is respond's turn at the socket; the caller holds wmu and is
// counted in wqueued.
func (c *conn) writeLocked(resp proto.Response, frame *frameBuf) error {
	if c.wfailed.Load() {
		return nil
	}
	if to := c.srv.cfg.WriteTimeout; to > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(to))
	}
	var err error
	switch {
	case frame == nil:
		err = proto.WriteResponse(c.bw, resp)
	case c.wqueued.Load() == 1 && c.bw.Buffered() == 0:
		_, err = c.nc.Write(frame.b)
	default:
		_, err = c.bw.Write(frame.b)
	}
	if err == nil && c.wqueued.Load() == 1 {
		err = c.bw.Flush()
	}
	return err
}

// frameBuf is a pooled byte buffer. Pools hold the pointer, so a Put boxes
// nothing, and a buffer too small for its next use is grown in place rather
// than dropped, so each pool settles at the sizes its traffic needs and then
// allocates no frame memory per request or response.
type frameBuf struct{ b []byte }

// Request bodies (filled by the reader, on lease to a worker) and response
// frames (filled and written by a worker) are sized by different things — the
// 4 KB page plus any write data, and the read payload — so each has its own
// free list instead of outgrowing the other's buffers.
var (
	bodyPool  = sync.Pool{New: func() any { return new(frameBuf) }}
	framePool = sync.Pool{New: func() any { return new(frameBuf) }}
)

// maxPooledFrame caps what release retains: one giant request or read must
// not pin a buffer that large in a pool forever.
const maxPooledFrame = 1 << 20

// sized sets the buffer's length to n, growing it when needed; contents are
// unspecified.
func (f *frameBuf) sized(n int) []byte {
	if cap(f.b) < n {
		f.b = make([]byte, n)
	}
	f.b = f.b[:n]
	return f.b
}

// release returns f to the pool it came from. nil is fine.
func (f *frameBuf) release(pool *sync.Pool) {
	if f == nil {
		return
	}
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	pool.Put(f)
}

func (c *conn) failWrite(err error) {
	if c.wfailed.CompareAndSwap(false, true) {
		c.srv.drops.Add(1)
		c.srv.logf("ndsserver: %v: write: %v", c.nc.RemoteAddr(), err)
		// Unblock the reader too: the conversation is over.
		c.nc.Close()
	}
}
