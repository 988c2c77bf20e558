// Package proto implements the PCIe/NVMe command-set extension of §5.3.1 as
// a concrete wire format. An extended NVMe command is a standard 64-byte
// submission entry whose first 64-bit word carries a reserved "extended"
// bit; a device that sees the bit clear treats the request as conventional
// one-dimensional I/O. The second 64-bit word points to a 4 KB memory page
// holding the multi-dimensional payload:
//
//   - for read/write: the view coordinates and sub-dimensionality, up to 32
//     dimensions with 2^24 elements each;
//   - for open_space: the element size and the dimensionality of the space
//     (again up to 32 dimensions x 2^24 elements).
//
// open_space returns a 64-bit space identifier and a dynamic view ID that
// read/write commands name; close_space retires the view ID and
// delete_space removes the space (§5.3.1).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnknownOpcode reports a well-formed extended entry whose opcode this
// device does not implement. The dispatcher maps it to StatusUnsupportedOp,
// distinct from the StatusInvalidField a malformed entry earns.
var ErrUnknownOpcode = errors.New("proto: unsupported opcode")

// Opcode identifies an extended command. Values sit in the NVMe
// vendor-specific range.
type Opcode uint8

const (
	OpRead        Opcode = 0xC1
	OpWrite       Opcode = 0xC2
	OpOpenSpace   Opcode = 0xC8
	OpCloseSpace  Opcode = 0xC9
	OpDeleteSpace Opcode = 0xCA
	OpReliability Opcode = 0xCB
	OpCacheStats  Opcode = 0xCC
	OpTenantStats Opcode = 0xCD
	OpScan        Opcode = 0xCE
	OpReduce      Opcode = 0xCF
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "nds_read"
	case OpWrite:
		return "nds_write"
	case OpOpenSpace:
		return "open_space"
	case OpCloseSpace:
		return "close_space"
	case OpDeleteSpace:
		return "delete_space"
	case OpReliability:
		return "get_reliability"
	case OpCacheStats:
		return "get_cache_stats"
	case OpTenantStats:
		return "get_tenant_stats"
	case OpScan:
		return "pushdown_scan"
	case OpReduce:
		return "pushdown_reduce"
	default:
		return fmt.Sprintf("opcode(%#x)", uint8(o))
	}
}

// Limits of the command format (§5.3.1).
const (
	MaxDims     = 32
	MaxDimSize  = 1 << 24
	PageSize    = 4096 // coordinate/dimensionality page
	CommandSize = 64   // one NVMe submission-queue entry
)

// extendedBit marks word 0 of an extended command; conventional NVMe
// commands never set it (it sits in a reserved region of the entry).
const extendedBit = uint64(1) << 63

// openCreate is the open_space flag requesting creation of a new space
// rather than a new view of an existing one (§5.3.1: "can create a new
// space or change the dimensionality of an existing space depending on the
// flag set in the command header").
const openCreate = uint64(1) << 62

// Command is one 64-byte submission entry.
//
// Word 0: [63] extended, [62] flags, [7:0] opcode, [39:8] target ID
// (dynamic view ID for read/write/close, space ID for open/delete).
// Word 1: host address of the 4 KB payload page (carried out of band here).
// Words 2..7: reserved, zero.
type Command struct {
	words [8]uint64
}

// IsExtended reports whether a raw submission entry is an NDS command.
// Conventional entries are handled by the unmodified NVMe path.
func IsExtended(raw [CommandSize]byte) bool {
	return binary.LittleEndian.Uint64(raw[:8])&extendedBit != 0
}

// Opcode returns the command opcode.
func (c Command) Opcode() Opcode { return Opcode(c.words[0] & 0xFF) }

// Target returns the 32-bit target identifier.
func (c Command) Target() uint32 { return uint32(c.words[0] >> 8) }

// CreateFlag reports the open_space create flag.
func (c Command) CreateFlag() bool { return c.words[0]&openCreate != 0 }

// PayloadAddr returns the host address of the payload page.
func (c Command) PayloadAddr() uint64 { return c.words[1] }

// Marshal serializes the command into a submission entry.
func (c Command) Marshal() [CommandSize]byte {
	var out [CommandSize]byte
	for i, w := range c.words {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out
}

// Unmarshal parses a submission entry, rejecting non-extended entries.
func Unmarshal(raw [CommandSize]byte) (Command, error) {
	var c Command
	for i := range c.words {
		c.words[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	if c.words[0]&extendedBit == 0 {
		return Command{}, fmt.Errorf("proto: not an extended command (reserved bit clear)")
	}
	switch c.Opcode() {
	case OpRead, OpWrite, OpOpenSpace, OpCloseSpace, OpDeleteSpace, OpReliability, OpCacheStats, OpTenantStats, OpScan, OpReduce:
	default:
		return Command{}, fmt.Errorf("%w %#x", ErrUnknownOpcode, uint8(c.Opcode()))
	}
	return c, nil
}

func newCommand(op Opcode, target uint32, payloadAddr uint64, create bool) Command {
	var c Command
	c.words[0] = extendedBit | uint64(op) | uint64(target)<<8
	if create {
		c.words[0] |= openCreate
	}
	c.words[1] = payloadAddr
	return c
}

// NewRead builds an nds_read command against an open view.
func NewRead(viewID uint32, payloadAddr uint64) Command {
	return newCommand(OpRead, viewID, payloadAddr, false)
}

// NewWrite builds an nds_write command against an open view.
func NewWrite(viewID uint32, payloadAddr uint64) Command {
	return newCommand(OpWrite, viewID, payloadAddr, false)
}

// NewOpenSpace builds an open_space command. With create set, the device
// allocates a new space from the payload's dimensionality; otherwise it
// opens a new view (of the payload's dimensionality) onto space spaceID.
func NewOpenSpace(spaceID uint32, payloadAddr uint64, create bool) Command {
	return newCommand(OpOpenSpace, spaceID, payloadAddr, create)
}

// NewCloseSpace builds a close_space command retiring a dynamic view ID.
func NewCloseSpace(viewID uint32) Command {
	return newCommand(OpCloseSpace, viewID, 0, false)
}

// NewDeleteSpace builds a delete_space command.
func NewDeleteSpace(spaceID uint32) Command {
	return newCommand(OpDeleteSpace, spaceID, 0, false)
}

// NewReliability builds a get_reliability command. The device answers with a
// ReliabilityPayload page describing fault, recovery, and capacity state.
func NewReliability(payloadAddr uint64) Command {
	return newCommand(OpReliability, 0, payloadAddr, false)
}

// NewCacheStats builds a get_cache_stats command. The device answers with a
// CacheStatsPayload page describing the building-block cache's hit, prefetch,
// and occupancy counters.
func NewCacheStats(payloadAddr uint64) Command {
	return newCommand(OpCacheStats, 0, payloadAddr, false)
}

// NewTenantStats builds a get_tenant_stats command. The device answers with
// a TenantStatsPayload page: one record per QoS tenant (space or space
// group), truncated to the page if the device has more tenants than fit —
// Completion.Result0 carries the untruncated tenant count.
func NewTenantStats(payloadAddr uint64) Command {
	return newCommand(OpTenantStats, 0, payloadAddr, false)
}

// NewScan builds a pushdown_scan command against an open view. The payload
// page is a ScanPayload: the partition coordinates plus the predicate range
// and result cursor.
func NewScan(viewID uint32, payloadAddr uint64) Command {
	return newCommand(OpScan, viewID, payloadAddr, false)
}

// NewReduce builds a pushdown_reduce command against an open view. The
// payload page is a ReducePayload: the partition coordinates plus the
// reduction operator.
func NewReduce(viewID uint32, payloadAddr uint64) Command {
	return newCommand(OpReduce, viewID, payloadAddr, false)
}

// CoordPayload is the 4 KB page named by a read/write command: the
// application-view coordinate and sub-dimensionality of the partition.
type CoordPayload struct {
	Coord []int64
	Sub   []int64
}

// Marshal encodes the payload into a fresh 4 KB page:
// uint32 rank, then rank x (uint32 coord, uint32 sub). It is kept small
// enough to inline, so a caller whose page does not escape — one that hands
// it straight to Device.Exec — gets it on its stack, not as 4 KB of garbage
// a command.
func (p CoordPayload) Marshal() ([]byte, error) {
	out := make([]byte, PageSize)
	if err := p.encode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalInto encodes the payload into page, which must be PageSize bytes
// and may hold a previous request's page: it is cleared first, which on a
// page that is reused costs a fraction of allocating a zeroed one.
func (p CoordPayload) MarshalInto(page []byte) error {
	clear(page[:PageSize])
	return p.encode(page)
}

// encode writes the payload over the head of a zeroed page.
func (p CoordPayload) encode(out []byte) error {
	if len(p.Coord) != len(p.Sub) {
		return fmt.Errorf("proto: coord rank %d != sub rank %d", len(p.Coord), len(p.Sub))
	}
	if len(p.Coord) == 0 || len(p.Coord) > MaxDims {
		return fmt.Errorf("proto: rank %d out of range [1,%d]", len(p.Coord), MaxDims)
	}
	binary.LittleEndian.PutUint32(out, uint32(len(p.Coord)))
	for i := range p.Coord {
		if p.Coord[i] < 0 || p.Coord[i] >= MaxDimSize {
			return fmt.Errorf("proto: coordinate %d = %d out of 24-bit range", i, p.Coord[i])
		}
		if p.Sub[i] <= 0 || p.Sub[i] > MaxDimSize {
			return fmt.Errorf("proto: sub-dimension %d = %d out of range", i, p.Sub[i])
		}
		binary.LittleEndian.PutUint32(out[4+8*i:], uint32(p.Coord[i]))
		binary.LittleEndian.PutUint32(out[8+8*i:], uint32(p.Sub[i]))
	}
	return nil
}

// Coords is a decoded coordinate page held by value: fixed arrays instead of
// CoordPayload's slices, so decoding one per command allocates nothing. The
// zero value is empty; Unmarshal fills it.
type Coords struct {
	rank       int
	coord, sub [MaxDims]int64
}

// Coord returns the partition coordinate, one entry per dimension.
func (c *Coords) Coord() []int64 { return c.coord[:c.rank] }

// Sub returns the partition's sub-dimensionality.
func (c *Coords) Sub() []int64 { return c.sub[:c.rank] }

// Unmarshal decodes a coordinate page into c.
func (c *Coords) Unmarshal(page []byte) error {
	if len(page) < 4 {
		return fmt.Errorf("proto: coordinate page too short")
	}
	rank := binary.LittleEndian.Uint32(page)
	if rank == 0 || rank > MaxDims {
		return fmt.Errorf("proto: rank %d out of range", rank)
	}
	if len(page) < int(4+8*rank) {
		return fmt.Errorf("proto: coordinate page truncated")
	}
	c.rank = int(rank)
	for i := 0; i < c.rank; i++ {
		c.coord[i] = int64(binary.LittleEndian.Uint32(page[4+8*i:]))
		c.sub[i] = int64(binary.LittleEndian.Uint32(page[8+8*i:]))
		if c.coord[i] >= MaxDimSize {
			return fmt.Errorf("proto: coordinate %d out of 24-bit range", i)
		}
		if c.sub[i] == 0 || c.sub[i] > MaxDimSize {
			return fmt.Errorf("proto: sub-dimension %d invalid", i)
		}
	}
	return nil
}

// UnmarshalCoordPayload decodes a coordinate page into freshly allocated
// slices; the command executor decodes into a Coords instead.
func UnmarshalCoordPayload(page []byte) (CoordPayload, error) {
	var c Coords
	if err := c.Unmarshal(page); err != nil {
		return CoordPayload{}, err
	}
	return CoordPayload{Coord: append([]int64(nil), c.Coord()...), Sub: append([]int64(nil), c.Sub()...)}, nil
}

// SpacePayload is the page named by an open_space command: the element size
// and dimensionality of the space or view.
//
// ElemSize 0 means "unspecified": legal only when opening a view of an
// existing space (the create flag clear), where the device checks a nonzero
// value against the space's element size and rejects mismatches. Creation
// always requires a concrete element size.
type SpacePayload struct {
	ElemSize int
	Dims     []int64
}

// Marshal encodes the payload: uint32 elemSize, uint32 rank, rank x uint32.
func (p SpacePayload) Marshal() ([]byte, error) {
	if p.ElemSize < 0 || p.ElemSize > 1<<16 {
		return nil, fmt.Errorf("proto: element size %d out of range", p.ElemSize)
	}
	if len(p.Dims) == 0 || len(p.Dims) > MaxDims {
		return nil, fmt.Errorf("proto: rank %d out of range [1,%d]", len(p.Dims), MaxDims)
	}
	out := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(out, uint32(p.ElemSize))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(p.Dims)))
	for i, d := range p.Dims {
		if d <= 0 || d > MaxDimSize {
			return nil, fmt.Errorf("proto: dimension %d = %d out of 24-bit range", i, d)
		}
		binary.LittleEndian.PutUint32(out[8+4*i:], uint32(d))
	}
	return out, nil
}

// UnmarshalSpacePayload decodes a space page.
func UnmarshalSpacePayload(page []byte) (SpacePayload, error) {
	if len(page) < 8 {
		return SpacePayload{}, fmt.Errorf("proto: space page too short")
	}
	elem := binary.LittleEndian.Uint32(page)
	rank := binary.LittleEndian.Uint32(page[4:])
	if elem > 1<<16 {
		return SpacePayload{}, fmt.Errorf("proto: element size %d out of range", elem)
	}
	if rank == 0 || rank > MaxDims {
		return SpacePayload{}, fmt.Errorf("proto: rank %d out of range", rank)
	}
	if len(page) < int(8+4*rank) {
		return SpacePayload{}, fmt.Errorf("proto: space page truncated")
	}
	p := SpacePayload{ElemSize: int(elem), Dims: make([]int64, rank)}
	for i := 0; i < int(rank); i++ {
		p.Dims[i] = int64(binary.LittleEndian.Uint32(page[8+4*i:]))
		if p.Dims[i] == 0 || p.Dims[i] > MaxDimSize {
			return SpacePayload{}, fmt.Errorf("proto: dimension %d out of range", i)
		}
	}
	return p, nil
}

// ReliabilityPayload is the page a get_reliability command returns: the
// device's injected-fault counters, the STL's recovery work, and the current
// capacity state after bad-block retirement.
type ReliabilityPayload struct {
	ProgramFaults  int64
	EraseFaults    int64
	WearoutFaults  int64
	ReadRetries    int64
	ProgramRetries int64
	RetiredBlocks  int64
	RetiredPages   int64
	MaxPages       int64
	EffectivePages int64
	UsedPages      int64
}

// Marshal encodes the payload into a 4 KB page: counterWords little-endian
// uint64 counters in struct order.
func (p ReliabilityPayload) Marshal() ([]byte, error) {
	return marshalCounters("reliability", p.words())
}

func (p *ReliabilityPayload) words() [counterWords]int64 {
	return [counterWords]int64{
		p.ProgramFaults, p.EraseFaults, p.WearoutFaults, p.ReadRetries,
		p.ProgramRetries, p.RetiredBlocks, p.RetiredPages,
		p.MaxPages, p.EffectivePages, p.UsedPages,
	}
}

// UnmarshalReliabilityPayload decodes a reliability page.
func UnmarshalReliabilityPayload(page []byte) (ReliabilityPayload, error) {
	w, err := unmarshalCounters("reliability", "reliability", page)
	if err != nil {
		return ReliabilityPayload{}, err
	}
	return ReliabilityPayload{
		ProgramFaults: w[0], EraseFaults: w[1], WearoutFaults: w[2], ReadRetries: w[3],
		ProgramRetries: w[4], RetiredBlocks: w[5], RetiredPages: w[6],
		MaxPages: w[7], EffectivePages: w[8], UsedPages: w[9],
	}, nil
}

// CacheStatsPayload is the page a get_cache_stats command returns: the
// building-block cache's demand hit/miss counters, prefetcher effectiveness,
// and current occupancy. All zero when the cache is disabled.
type CacheStatsPayload struct {
	Hits           int64
	Misses         int64
	HitBytes       int64
	PrefetchIssued int64
	PrefetchUsed   int64
	PrefetchWasted int64
	Evictions      int64
	Invalidations  int64
	ResidentBytes  int64
	CapacityBytes  int64
}

// Marshal encodes the payload into a 4 KB page: counterWords little-endian
// uint64 counters in struct order.
func (p CacheStatsPayload) Marshal() ([]byte, error) {
	return marshalCounters("cache", p.words())
}

func (p *CacheStatsPayload) words() [counterWords]int64 {
	return [counterWords]int64{
		p.Hits, p.Misses, p.HitBytes,
		p.PrefetchIssued, p.PrefetchUsed, p.PrefetchWasted,
		p.Evictions, p.Invalidations, p.ResidentBytes, p.CapacityBytes,
	}
}

// UnmarshalCacheStatsPayload decodes a cache-statistics page.
func UnmarshalCacheStatsPayload(page []byte) (CacheStatsPayload, error) {
	w, err := unmarshalCounters("cache-stats", "cache", page)
	if err != nil {
		return CacheStatsPayload{}, err
	}
	return CacheStatsPayload{
		Hits: w[0], Misses: w[1], HitBytes: w[2],
		PrefetchIssued: w[3], PrefetchUsed: w[4], PrefetchWasted: w[5],
		Evictions: w[6], Invalidations: w[7], ResidentBytes: w[8], CapacityBytes: w[9],
	}, nil
}

// counterWords is the number of 64-bit counters in a reliability or
// cache-statistics page.
const counterWords = 10

// marshalCounters is the page codec both counter families share; family names
// the counters in its error.
func marshalCounters(family string, w [counterWords]int64) ([]byte, error) {
	for i, v := range w {
		if v < 0 {
			return nil, fmt.Errorf("proto: %s counter %d is negative (%d)", family, i, v)
		}
	}
	out := make([]byte, PageSize)
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out, nil
}

func unmarshalCounters(pageName, family string, page []byte) (w [counterWords]int64, err error) {
	if len(page) < 8*counterWords {
		return w, fmt.Errorf("proto: %s page too short", pageName)
	}
	for i := range w {
		v := binary.LittleEndian.Uint64(page[8*i:])
		if v > 1<<62 {
			return w, fmt.Errorf("proto: %s counter %d overflows (%d)", family, i, v)
		}
		w[i] = int64(v)
	}
	return w, nil
}

// TenantStatsEntry is one tenant's record in a get_tenant_stats page.
type TenantStatsEntry struct {
	// Tenant is the tenant identity: the space ID, or a space-group ID with
	// TenantGroupBit set.
	Tenant uint64
	// WeightMilli is the scheduling weight in thousandths (weight 1.0 =
	// 1000), keeping the page integer-only.
	WeightMilli int64
	Ops         int64 // admitted partition requests
	Bytes       int64 // payload bytes of successful requests
	SimBusyNs   int64 // simulated device occupancy of those requests
	QueueWaitNs int64 // wall ns spent queued for a dispatch slot
	ThrottleNs  int64 // wall ns spent blocked on the token bucket
}

// TenantGroupBit marks a TenantStatsEntry.Tenant as a space-group tenant.
const TenantGroupBit = uint64(1) << 63

// tenantStatsEntryWords is the number of 64-bit words per entry (Tenant plus
// six counters).
const tenantStatsEntryWords = 7

// MaxTenantStatsEntries is how many tenant records fit in one 4 KB page
// after the 8-byte header.
const MaxTenantStatsEntries = (PageSize - 8) / (8 * tenantStatsEntryWords)

// TenantStatsPayload is the page a get_tenant_stats command returns. Total
// is the device's tenant count; Entries holds the first
// min(Total, MaxTenantStatsEntries) of them in ascending tenant order
// (spaces before groups).
type TenantStatsPayload struct {
	Total   int64
	Entries []TenantStatsEntry
}

// Marshal encodes the payload into a 4 KB page: a little-endian uint32 entry
// count and uint32 total, then tenantStatsEntryWords uint64 words per entry.
func (p TenantStatsPayload) Marshal() ([]byte, error) {
	if len(p.Entries) > MaxTenantStatsEntries {
		return nil, fmt.Errorf("proto: %d tenant entries exceed page capacity %d", len(p.Entries), MaxTenantStatsEntries)
	}
	if p.Total < int64(len(p.Entries)) {
		return nil, fmt.Errorf("proto: tenant total %d below entry count %d", p.Total, len(p.Entries))
	}
	out := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(out, uint32(len(p.Entries)))
	binary.LittleEndian.PutUint32(out[4:], uint32(p.Total))
	for i, e := range p.Entries {
		for j, v := range [...]int64{e.WeightMilli, e.Ops, e.Bytes, e.SimBusyNs, e.QueueWaitNs, e.ThrottleNs} {
			if v < 0 {
				return nil, fmt.Errorf("proto: tenant entry %d counter %d is negative (%d)", i, j, v)
			}
		}
		base := 8 + i*8*tenantStatsEntryWords
		binary.LittleEndian.PutUint64(out[base:], e.Tenant)
		for j, v := range [...]int64{e.WeightMilli, e.Ops, e.Bytes, e.SimBusyNs, e.QueueWaitNs, e.ThrottleNs} {
			binary.LittleEndian.PutUint64(out[base+8+8*j:], uint64(v))
		}
	}
	return out, nil
}

// UnmarshalTenantStatsPayload decodes a tenant-statistics page.
func UnmarshalTenantStatsPayload(page []byte) (TenantStatsPayload, error) {
	if len(page) < 8 {
		return TenantStatsPayload{}, fmt.Errorf("proto: tenant-stats page too short")
	}
	count := int(binary.LittleEndian.Uint32(page))
	total := int64(binary.LittleEndian.Uint32(page[4:]))
	if count > MaxTenantStatsEntries {
		return TenantStatsPayload{}, fmt.Errorf("proto: tenant entry count %d exceeds page capacity %d", count, MaxTenantStatsEntries)
	}
	if total < int64(count) {
		return TenantStatsPayload{}, fmt.Errorf("proto: tenant total %d below entry count %d", total, count)
	}
	if len(page) < 8+count*8*tenantStatsEntryWords {
		return TenantStatsPayload{}, fmt.Errorf("proto: tenant-stats page truncated (%d entries, %d bytes)", count, len(page))
	}
	p := TenantStatsPayload{Total: total}
	for i := 0; i < count; i++ {
		base := 8 + i*8*tenantStatsEntryWords
		var e TenantStatsEntry
		e.Tenant = binary.LittleEndian.Uint64(page[base:])
		dst := [...]*int64{&e.WeightMilli, &e.Ops, &e.Bytes, &e.SimBusyNs, &e.QueueWaitNs, &e.ThrottleNs}
		for j, d := range dst {
			v := binary.LittleEndian.Uint64(page[base+8+8*j:])
			if v > 1<<62 {
				return TenantStatsPayload{}, fmt.Errorf("proto: tenant entry %d counter %d overflows (%d)", i, j, v)
			}
			*d = int64(v)
		}
		p.Entries = append(p.Entries, e)
	}
	return p, nil
}

// Completion is a device response: a status code plus two result words
// (open_space returns the 64-bit space identifier and the dynamic view ID).
type Completion struct {
	Status  Status
	Result0 uint64
	Result1 uint64
}

// Status is the completion status code.
type Status uint8

const (
	StatusOK Status = iota
	StatusInvalidField
	StatusUnknownSpace
	StatusUnknownView
	StatusCapacity
	StatusInternal
	// StatusMediaError: the flash medium failed beyond the STL's recovery
	// (program retries exhausted or no relocation target); appended after
	// StatusInternal so existing status values stay stable on the wire.
	StatusMediaError
	// StatusUnsupportedOp: a well-formed extended entry named an opcode this
	// device does not implement. Distinct from StatusInvalidField (a known
	// command with a malformed field) so hosts can tell "fix the request"
	// from "this device lacks the command". Appended to keep prior status
	// values stable on the wire.
	StatusUnsupportedOp
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidField:
		return "invalid field"
	case StatusUnknownSpace:
		return "unknown space"
	case StatusUnknownView:
		return "unknown view"
	case StatusCapacity:
		return "capacity exceeded"
	case StatusMediaError:
		return "unrecoverable media error"
	case StatusUnsupportedOp:
		return "unsupported opcode"
	default:
		return "internal error"
	}
}
