// Package nds is the public interface of this repository's reproduction of
// "NDS: N-Dimensional Storage" (Liu & Tseng, MICRO 2021): a multi-dimensional
// storage system in which applications create address spaces with their own
// dimensionality and read/write partitions by coordinate, while the space
// translation layer (STL) places data in building blocks spread across all
// flash channels so that rows, columns, and tiles are all fast.
//
// A Device simulates a complete NDS-compliant drive (flash array, controller,
// interconnect, and host software stack) with either the software-only or the
// hardware-assisted STL of the paper. Data written through the API is really
// stored and really translated — only time is simulated: every operation
// advances the device's simulated clock by the modelled latency, which is how
// the repository reproduces the paper's evaluation.
//
// Basic use:
//
//	dev, _ := nds.Open(nds.Options{Mode: nds.ModeHardware})
//	id, _ := dev.CreateSpace(4, []int64{1024, 1024})   // 1Kx1K float32 space
//	prod, _ := dev.OpenSpace(id, []int64{1024, 1024})  // producer view
//	prod.Write([]int64{0, 0}, []int64{1024, 1024}, data)
//	cons, _ := dev.OpenSpace(id, []int64{2048, 512})   // reshaped consumer view
//	tile, stats, _ := cons.Read([]int64{1, 0}, []int64{512, 512})
//
// # Concurrency
//
// A Device serves multiple request streams concurrently, like the real
// multi-queue drive it models. Each opened view is one command stream —
// the moral equivalent of an NVMe submission queue. A stream's commands
// issue back-to-back in simulated time: each one's issue time is the
// completion of the stream's previous command (the stream's creation time
// for the first), and its flash operations are scheduled on the
// per-channel/per-bank resource timelines from that point. Distinct streams
// issue independently, so commands from concurrent clients overlap on
// disjoint dies and queue behind each other where they collide — regardless
// of how the host happens to interleave the calls. The device clock (Now)
// only moves forward, to the latest completion seen, and a command's
// Stats.Elapsed is its own completion minus its own issue time — not the
// distance the global clock moved.
//
// Internally, package nds takes no device-wide lock: a space's lifetime is
// the STL's. Reads, writes and view opens share its maintenance barrier, and
// a request takes it only after tenant admission, so a tenant asleep in its
// token bucket holds up no one. The STL serializes writers per space (readers
// never see a half-applied write), allocates under per-die locks and collects
// garbage inline on the writer, so writers to different spaces run in
// parallel and a device driven one write at a time replays exactly. Create,
// delete and resize take the barrier exclusively; after a delete or resize
// every older view of the space is refused with ErrClosedView, even
// mid-flight. Flush drains one space at a time as a writer of it, so it holds
// up no other space's requests. View lifecycle (open/close, wire view IDs) is
// guarded separately, so closing one view stalls no I/O on another.
package nds

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
)

// ErrClosedView reports an operation on a view that was closed — by Close, or
// by a delete or resize of its space — or a second close. It is the STL's
// sentinel; the wire layer maps it to StatusUnknownView, what a host sees when
// it reuses a retired dynamic view ID.
var ErrClosedView = stl.ErrClosedView

// Mode selects which NDS implementation of the paper backs the device.
type Mode int

const (
	// ModeSoftware runs the STL on the host over an open-channel device
	// (Figure 7b): translation and object assembly cost host CPU and raw
	// pages cross the interconnect.
	ModeSoftware Mode = iota
	// ModeHardware runs the STL inside the device controller (Figure 7c):
	// one command per access, in-device assembly, full internal bandwidth.
	ModeHardware
)

func (m Mode) String() string {
	if m == ModeSoftware {
		return "software"
	}
	return "hardware"
}

// Options configures Open.
type Options struct {
	// Mode picks the software-only or hardware-assisted implementation.
	Mode Mode
	// CapacityHint sizes the simulated flash array (bytes of expected data).
	// Zero selects a small default of 64 MiB.
	CapacityHint int64
	// Phantom disables byte storage: operations keep exact timing and
	// translation state but Read returns nil data. Used for paper-scale
	// experiments.
	Phantom bool
	// BlockOrder forces the building-block dimensionality (1-3); zero keeps
	// the paper default (2-D blocks for spaces of two or more dimensions).
	BlockOrder int
	// EncryptionKey, when non-empty, installs the §5.3.3 inline AES engine:
	// the medium holds ciphertext, the API speaks plaintext, and building
	// blocks, GC, and views are unaffected. Data-bearing devices only.
	EncryptionKey []byte
	// Compress enables §5.3.4's building-block-granular compression
	// (data-bearing devices only).
	Compress bool
	// ZeroPageElision enables the §8 page-zero optimization for sparse
	// content: all-zero pages occupy no flash units.
	ZeroPageElision bool
	// WriteBuffering enables §4.4's sub-unit write staging: partitions
	// smaller than a basic access unit collect in STL memory and program
	// once a unit fills or Flush is called.
	WriteBuffering bool
	// CacheBytes sizes the STL's building-block DRAM cache (host DRAM in
	// ModeSoftware, controller DRAM in ModeHardware). Zero disables the cache
	// entirely, leaving the device bit- and timing-identical to one without
	// the feature. Flash pages read on the demand path are retained at
	// building-block granularity and served from DRAM on re-access; any
	// write, GC move, block retirement, or resize invalidates the affected
	// blocks. Observe effectiveness through CacheStats().
	CacheBytes int64
	// PrefetchDepth enables the dimensional prefetcher on cached devices:
	// when a view streams partitions along one axis of the building-block
	// grid, the next PrefetchDepth blocks on that axis warm into the cache
	// in the background. Zero disables prefetch; ignored when CacheBytes is
	// zero.
	PrefetchDepth int
	// Deprecated: ignored. Garbage collection always runs inline on the
	// writing goroutine, so two devices driven one write at a time are bit-
	// and fault-point-identical without it.
	SynchronousGC bool
	// Faults, when non-nil and enabled, installs deterministic flash fault
	// injection: the simulated medium fails programs and erases, needs ECC
	// read retries, and wears blocks out at seed-derived points, and the
	// STL's recovery machinery absorbs it (retiring bad blocks, relocating
	// failed programs). Observe the outcome through Reliability(). With no
	// plan the device behaves bit-identically to one without the feature.
	Faults *FaultPlan
	// DisablePushdown turns off the in-storage compute operators: Space.Scan
	// and Space.Reduce fail with ErrPushdownDisabled, and the wire opcodes
	// pushdown_scan/pushdown_reduce complete with StatusUnsupportedOp —
	// exactly what a host sees from a drive without the capability. The data
	// path is unaffected.
	DisablePushdown bool
	// TenantQoS, when non-nil, installs per-tenant weighted fair scheduling
	// in front of the data path: each space (or space group, see
	// BindSpaceGroup) is a tenant with a weight and an optional token-bucket
	// rate limit, enforced before a request books any channel/bank timeline —
	// a flooding tenant queues in wall-clock time instead of monopolizing the
	// simulated device. The gate never touches simulated timestamps, and with
	// TenantQoS nil the device is bit- and simulated-time-identical to one
	// without the feature. Observe the outcome through TenantStats().
	TenantQoS *TenantQoS
}

// TenantQoS sets the default per-tenant scheduling parameters
// (Options.TenantQoS); override individual tenants with Device.SetTenantQoS
// and Device.SetGroupQoS. Weight is the relative share of device dispatch
// slots under contention (<= 0 selects 1); RateBytesPerSec caps each tenant's
// admitted payload bandwidth via a token bucket charged before dispatch (<= 0
// leaves tenants uncapped); Burst is the bucket depth in bytes (<= 0 selects
// the larger of 1 MiB and 100 ms of RateBytesPerSec). The alias — like the
// others below — lets callers name the type without importing the internal
// package that declares it; DESIGN.md's "Records" table lists them all.
type TenantQoS = sim.FlowConfig

// FaultPlan configures deterministic flash fault injection (Options.Faults):
// Seed phases each die's fault points; ProgramFailEvery, EraseFailEvery and
// ReadRetryEvery N > 0 fail (or, for reads, ECC-retry with ReadRetrySenses
// extra sensing passes, default 2) one in every N attempts per die; and
// EnduranceLimit E > 0 wears a block out after E successful erases. Zero
// values disable each mechanism. Two devices with the same geometry and plan,
// driven by identical operation sequences, fail at identical points.
type FaultPlan = nvm.FaultPlan

// ReliabilityReport describes the device's fault history and the STL's
// recovery work: what the medium did, what was absorbed, and how much
// capacity retirement has cost. All zero on a device without a fault plan.
type ReliabilityReport = stl.ReliabilityReport

// CacheStats describes the building-block cache's behavior: demand hit/miss
// counters, prefetcher effectiveness, and current occupancy. All zero on a
// device opened without CacheBytes.
type CacheStats = stl.CacheStats

// GCStats describes the garbage collector's work: how often it ran, how much
// it moved, and the resulting write amplification (WriteAmp: flash programs
// per logical page written, 1.0 = no GC overhead). Runs counts the inline
// collection passes writers made; their time is part of the writes that made
// them, so StallNs is always zero.
type GCStats = stl.GCReport

// GCStats snapshots the garbage collector's counters.
func (d *Device) GCStats() GCStats { return d.sys.STL.GCReport() }

// SpaceID names a created address space.
type SpaceID = stl.SpaceID

// Stats summarizes one operation: the single record every layer of the stack
// fills in its part of. Bytes is the payload, RawBytes what crossed the host
// interconnect, Pages the flash page operations (PagesRead +
// PagesProgrammed), Commands the I/O commands issued, Extents the
// building-block fragments translated (over Blocks blocks and Traversals
// index lookups), and ProgramRetries the faulted programs relocated while
// serving it (nonzero only under Options.Faults; see Reliability). Done is
// the command's completion on the Device.Now clock and Elapsed its simulated
// service time: Done minus the command's own issue time.
type Stats = stl.RequestStats

// Device is a simulated NDS-compliant storage device. It is safe for
// concurrent use and serves concurrent request streams: see the package
// comment's Concurrency section for the scheduling and timing model.
//
// Lock order (for maintainers): Space.mu, then the STL's own (QoS admission
// -> barrier -> stl.Space.mu -> die -> cache shard; stl.Space.mu also guards
// the space's §4.4 staged pages); Device.viewMu is a leaf, taken under the
// barrier's shared side by OpenSpace.
type Device struct {
	sys *system.System

	// now is the monotonic simulated clock: a lock-free high-water mark over
	// command completions (CAS-max in advance), so concurrent streams
	// completing on disjoint resources never funnel through a shared clock
	// mutex. See DESIGN.md's sharded-clock section.
	now atomic.Int64

	// noPushdown records Options.DisablePushdown.
	noPushdown bool

	// viewMu guards the view registry: every open Space under its
	// wire-protocol dynamic view ID, and the ID counter. Both the typed API
	// and Exec register and retire views here, so the two paths see one
	// lifecycle.
	viewMu   sync.RWMutex
	views    map[uint32]*Space
	nextView uint32
}

// Open builds a device following the paper's prototype platform (32
// channels, 8 banks, 4 KB pages, NVMe-oF host link).
func Open(opts Options) (*Device, error) {
	hint := opts.CapacityHint
	if hint <= 0 {
		hint = 64 << 20
	}
	cfg := system.PrototypeConfig(hint, opts.Phantom)
	if opts.BlockOrder != 0 {
		cfg.STL.BBOrder = opts.BlockOrder
		cfg.STL.BBMultiplier = 1
	}
	cfg.CipherKey = opts.EncryptionKey
	cfg.STL.Compress = opts.Compress
	cfg.STL.ZeroPageElision = opts.ZeroPageElision
	cfg.STL.WriteBuffering = opts.WriteBuffering
	cfg.STL.CacheBytes = opts.CacheBytes
	cfg.STL.PrefetchDepth = opts.PrefetchDepth
	cfg.STL.TenantQoS = opts.TenantQoS
	if opts.Faults != nil {
		cfg.Faults = *opts.Faults
	}
	kind := system.SoftwareNDS
	if opts.Mode == ModeHardware {
		kind = system.HardwareNDS
	}
	sys, err := system.New(kind, cfg)
	if err != nil {
		return nil, err
	}
	return &Device{
		sys:        sys,
		noPushdown: opts.DisablePushdown,
		views:      make(map[uint32]*Space),
	}, nil
}

// Close gives back at once the memory of the device's reverse map, flash
// timelines and page frames' chunks (stl.STL.Close), which otherwise goes
// when the device is collected, so closing one is optional. A Device runs no goroutine of its
// own. A closed device, and every Space opened on it, must not be used; a
// second Close does nothing.
func (d *Device) Close() error { return d.sys.STL.Close() }

// clock reports the current simulated time: the issue time for a command
// arriving now.
func (d *Device) clock() sim.Time {
	return sim.Time(d.now.Load())
}

// advance moves the simulated clock forward to done; the clock never moves
// backward, so out-of-order completions keep it monotonic. CAS-max instead
// of a mutex: every completed command on every stream passes through here,
// and under 64 concurrent clients a shared clock mutex is a measurable
// convoy.
func (d *Device) advance(done sim.Time) {
	d64 := int64(done)
	for {
		cur := d.now.Load()
		if d64 <= cur || d.now.CompareAndSwap(cur, d64) {
			return
		}
	}
}

// Now reports the device's simulated clock.
func (d *Device) Now() time.Duration {
	return time.Duration(d.clock())
}

// Capacity reports the raw capacity of the simulated flash array.
func (d *Device) Capacity() int64 { return d.sys.Cfg.Geometry.Capacity() }

// Phantom reports whether the device was opened without byte storage
// (Options.Phantom): timing and translation are exact but reads return no
// data.
func (d *Device) Phantom() bool { return d.sys.Dev.Phantom() }

// Reliability snapshots the device's fault and recovery state: injected
// fault counts, successful relocations, retired blocks, and the logical
// capacity remaining after graceful degradation.
func (d *Device) Reliability() ReliabilityReport { return d.sys.STL.Reliability() }

// CacheStats snapshots the building-block cache's counters (get_cache_stats
// on the wire). All zero when the device was opened without CacheBytes.
func (d *Device) CacheStats() CacheStats { return d.sys.STL.CacheStats() }

// TenantStats is one tenant's accumulated QoS accounting (get_tenant_stats
// on the wire). A tenant is a space, or — when IsGroup is set — a space
// group that one or more spaces are bound to.
type TenantStats = stl.TenantStats

// TenantStats snapshots per-tenant QoS accounting for every tenant that has
// issued requests, ordered spaces first then groups, ascending. Nil when the
// device was opened without Options.TenantQoS.
func (d *Device) TenantStats() []TenantStats { return d.sys.STL.TenantStats() }

// SetTenantQoS overrides one space tenant's scheduling parameters. Requests
// already queued keep their place; new requests schedule under the new
// weight and rate. Fails when the device was opened without
// Options.TenantQoS.
func (d *Device) SetTenantQoS(id SpaceID, q TenantQoS) error {
	return d.sys.STL.SetTenantQoS(stl.SpaceTenant(id), q)
}

// SetGroupQoS overrides a space group's scheduling parameters (see
// BindSpaceGroup).
func (d *Device) SetGroupQoS(group uint32, q TenantQoS) error {
	return d.sys.STL.SetTenantQoS(stl.GroupTenant(group), q)
}

// BindSpaceGroup binds a space to group tenant g, so all spaces bound to g
// share one weight and one token bucket; g = 0 unbinds the space back to its
// own tenant. Takes effect for requests admitted after the call.
func (d *Device) BindSpaceGroup(id SpaceID, g uint32) error {
	return d.sys.STL.BindSpaceGroup(id, g)
}

// CreateSpace creates a multi-dimensional address space of the given element
// size (bytes) and dimensionality, returning its identifier. The STL sizes
// building blocks for the device geometry per the paper's Equations 1-4.
func (d *Device) CreateSpace(elemSize int, dims []int64) (SpaceID, error) {
	sp, err := d.sys.STL.CreateSpace(elemSize, dims)
	if err != nil {
		return 0, err
	}
	return sp.ID(), nil
}

// DeleteSpace permanently removes a space and invalidates its storage (the
// delete_space command of §5.3.1). Every open view of the space — typed or
// wire — is closed before DeleteSpace returns: its dynamic view ID is
// retired from the registry, and further operations on it report
// ErrClosedView (StatusUnknownView on the wire), never a dangling read of
// freed blocks. An operation already in flight on such a view either runs
// before the delete or fails with ErrClosedView too.
func (d *Device) DeleteSpace(id SpaceID) error {
	if err := d.sys.STL.DeleteSpace(id); err != nil {
		return err
	}
	d.retireViews(id)
	return nil
}

// ResizeSpace expands or shrinks a space along its outermost dimension
// (§5.1: passing an existing identifier to the space-management API
// restructures the space). Existing data within the new bound is preserved.
// A shrink whose bound falls inside a programmed page rewrites that page's
// tail with zeros: the rewrite issues at the device clock, which advances to
// its completion, as Flush's programs do; any other resize takes no
// simulated time. Open views of the space are stale after a resize — their
// volumes no longer match — so, like DeleteSpace, ResizeSpace closes them all
// before returning; consumers reopen with matching volumes.
func (d *Device) ResizeSpace(id SpaceID, newDim0 int64) error {
	done, err := d.sys.STL.ResizeSpace(d.clock(), id, newDim0)
	d.advance(done)
	if err != nil {
		return err
	}
	d.retireViews(id)
	return nil
}

// retireViews closes every open view of space id, retiring their dynamic wire
// IDs; the STL already refuses them, so this only empties the registry. It
// runs after a successful delete or resize with no locks held (Close takes
// Space.mu then viewMu). A view registered after the snapshot below was
// opened against the new space state, so it survives.
func (d *Device) retireViews(id SpaceID) {
	d.viewMu.RLock()
	stale := make([]*Space, 0, len(d.views))
	for _, s := range d.views {
		if s.id == id {
			stale = append(stale, s)
		}
	}
	d.viewMu.RUnlock()
	for _, s := range stale {
		_ = s.Close() // already-closed views are fine: the error is the point
	}
}

// OpenViews reports the number of views currently open on the device (the
// size of the dynamic view-ID registry). Diagnostic: a long-running host
// that opens and closes views — or deletes spaces with views still open —
// can watch this return to zero to confirm nothing leaks.
func (d *Device) OpenViews() int {
	d.viewMu.RLock()
	defer d.viewMu.RUnlock()
	return len(d.views)
}

// Flush programs every §4.4-staged partial unit (WriteBuffering devices);
// a no-op otherwise.
func (d *Device) Flush() error {
	done, err := d.sys.STL.Flush(d.clock())
	d.advance(done)
	return err
}

// SpaceInfo describes a space's layout decisions.
type SpaceInfo struct {
	ID         SpaceID
	ElemSize   int
	Dims       []int64
	BlockDims  []int64
	GridDims   []int64
	PagesPerBB int
	IndexBytes int64
}

// Inspect reports a space's dimensionality and building-block layout.
func (d *Device) Inspect(id SpaceID) (info SpaceInfo, err error) {
	err = d.sys.STL.WithSpace(id, func(sp *stl.Space) error {
		info = SpaceInfo{
			ID:         id,
			ElemSize:   sp.ElemSize(),
			Dims:       sp.Dims(),
			BlockDims:  sp.BlockDims(),
			GridDims:   sp.GridDims(),
			PagesPerBB: sp.PagesPerBlock(),
			IndexBytes: sp.IndexFootprint(),
		}
		return nil
	})
	return info, err
}

// Space is an opened application view of an address space (the open_space
// command of §5.3.1 with a dynamic view ID). The view's dimensionality may
// differ from the producer's as long as the volumes match.
//
// A Space is safe for concurrent use, but it is one command stream: its
// operations serialize against each other, issuing back-to-back in simulated
// time. Clients that want their requests scheduled concurrently each open
// their own view (see the package comment's Concurrency section).
type Space struct {
	dev  *Device
	id   SpaceID
	wire uint32 // dynamic view ID in the device's registry

	mu     sync.Mutex // serializes the stream: guards view and cursor
	view   *stl.View  // nil after Close
	cursor sim.Time   // issue time of the stream's next command
}

// OpenSpace opens a view of space id with the given dimensionality. Every
// view — whether opened here or through the wire protocol — receives a
// dynamic view ID in the device's registry, so the typed and wire paths share
// one lifecycle.
func (d *Device) OpenSpace(id SpaceID, viewDims []int64) (*Space, error) {
	var s *Space
	// Open and register under the STL's shared barrier, so no delete or
	// resize slips between them and retireViews sees every view opened live.
	err := d.sys.STL.WithSpace(id, func(sp *stl.Space) error {
		v, err := stl.NewView(sp, viewDims)
		if err != nil {
			return err
		}
		s = &Space{dev: d, id: id, view: v, cursor: d.clock()}
		d.viewMu.Lock()
		d.nextView++
		s.wire = d.nextView
		d.views[s.wire] = s
		d.viewMu.Unlock()
		return nil
	})
	return s, err
}

// Close releases the view (the close_space command), retiring its dynamic
// view ID. Further accesses fail with ErrClosedView.
func (s *Space) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.view == nil {
		return fmt.Errorf("nds: close of already %w", ErrClosedView)
	}
	s.view = nil
	d := s.dev
	d.viewMu.Lock()
	delete(d.views, s.wire)
	d.viewMu.Unlock()
	return nil
}

// ID returns the underlying space identifier.
func (s *Space) ID() SpaceID { return s.id }

// WireID returns the view's dynamic identifier in the device's wire-protocol
// registry (the open_space Result1 value).
func (s *Space) WireID() uint32 { return s.wire }

// Dims returns the view's dimensionality.
func (s *Space) Dims() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Dims()
}

// Read fetches the partition at coord with sub-dimensionality sub, assembled
// in the partition's own row-major layout. On a phantom device the data is
// nil but stats are exact. Reads from distinct views run in parallel.
func (s *Space) Read(coord, sub []int64) ([]byte, Stats, error) {
	return s.ReadInto(coord, sub, nil)
}

// ReadInto is Read assembling the partition into dst when dst has enough
// capacity (allocating a fresh buffer otherwise, exactly like Read). The
// returned slice aliases dst in that case. Ownership rule: the buffer belongs
// to the caller's stream — reuse it across this view's reads to make the
// steady-state read path allocation-free, but consume or copy the result
// before issuing the next read with the same buffer, and never share one
// buffer across views reading concurrently. dst's old contents never show
// through: unwritten regions of the partition are zeroed in it.
func (s *Space) ReadInto(coord, sub []int64, dst []byte) ([]byte, Stats, error) {
	var data []byte
	st, err := s.issue("read", func(at sim.Time, v *stl.View) (st Stats, err error) {
		data, st, err = s.dev.sys.NDSReadInto(at, v, coord, sub, dst)
		return st, err
	})
	return data, st, err
}

// Segment is one contiguous source piece of a segmented read: see
// ReadSegments and stl.Segment. The alias lets callers name the type without
// importing the internal package.
type Segment = stl.Segment

// ReadSegments reads the partition at coord/sub like Read, but delivers the
// result to fn as ordered source segments instead of assembling a contiguous
// buffer: fn receives the partition's payload size and a Dst-ordered,
// non-overlapping segment list whose gaps read as zeros. This is the
// zero-copy read path — a consumer that can gather (frame encoders,
// checksummers, scatter targets) skips the partition-buffer copy entirely;
// ReadInto is this call with a gather into dst as fn.
//
// Lease rule: the segments alias device-owned storage and are valid only
// until fn returns; fn must gather or copy, never retain or mutate. fn runs
// with the request's locks held, so it must not call back into the device.
// Timing and stats are identical to Read. On a phantom device fn receives
// (want, nil).
func (s *Space) ReadSegments(coord, sub []int64, fn func(want int64, segs []Segment) error) (Stats, error) {
	return s.issue("read", func(at sim.Time, v *stl.View) (Stats, error) {
		return s.dev.sys.NDSReadSegments(at, v, coord, sub, fn)
	})
}

// Write stores data (laid out in the partition's row-major shape) at the
// partition coord/sub. On a phantom device pass nil data. Writes to distinct
// spaces run in parallel (the STL serializes writers per space), and their
// flash operations overlap in simulated time with commands issued on other
// streams.
func (s *Space) Write(coord, sub []int64, data []byte) (Stats, error) {
	return s.issue("write", func(at sim.Time, v *stl.View) (Stats, error) {
		return s.dev.sys.NDSWrite(at, v, coord, sub, data)
	})
}

// issue runs one partition command on the stream: it serializes against the
// view's other commands, rejects a closed view (op names the command in that
// error; the STL refuses a stale one), issues run at the stream cursor, and
// accounts the completion. Every data command of the typed API is a caller.
func (s *Space) issue(op string, run func(at sim.Time, v *stl.View) (Stats, error)) (Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view == nil {
		return Stats{}, fmt.Errorf("nds: %s on %w", op, ErrClosedView)
	}
	issue := s.cursor
	st, err := run(issue, s.view)
	if err != nil {
		return Stats{}, err
	}
	// Completion: the stream's next command issues here, the device clock
	// moves up to it, and elapsed is measured from this command's own issue.
	s.cursor = sim.Max(s.cursor, st.Done)
	s.dev.advance(st.Done)
	st.Elapsed = time.Duration(st.Done - issue)
	return st, nil
}
