// Package system composes the substrate models into the paper's three
// evaluated configurations (Figure 7):
//
//   - Baseline: a conventional SSD — host software stack, NVMe(-oF) link,
//     baseline controller with an FTL exposing a linear LBA space. The host
//     must marshal multi-dimensional objects itself.
//   - SoftwareNDS: the STL runs on the host over an open-channel
//     (LightNVM-style) device; translation and object assembly consume host
//     CPU, and raw pages cross the interconnect.
//   - HardwareNDS: the STL runs inside the device controller; one extended
//     NVMe command per partition, translation and assembly in the device,
//     and only the assembled object crosses the interconnect.
//
// Every command is booked by one stage evaluator (command, ops.go) on the
// system's timelines — host I/O thread and worker, link, and the
// controller's command handler, translator, assembler and channel dispatch —
// and on the flash channels and banks beneath, so pipelining and bottleneck
// shifts emerge from the model rather than from per-configuration formulas.
package system

import (
	"fmt"

	"nds/internal/crypt"
	"nds/internal/nvm"
	"nds/internal/sim"
	"nds/internal/stl"
)

// Kind selects one of the three evaluated system configurations.
type Kind int

const (
	Baseline Kind = iota
	SoftwareNDS
	HardwareNDS
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case SoftwareNDS:
		return "software-nds"
	case HardwareNDS:
		return "hardware-nds"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config assembles the model parameters of one platform. The host, link and
// controller costs are the prototype's (platform.go) on every Config.
type Config struct {
	Geometry nvm.Geometry
	Timing   nvm.Timing
	Phantom  bool
	// STL holds the NDS kinds' translation-layer policy. The baseline's block
	// device takes its over-provision fraction and collection low mark.
	STL stl.Config
	// CipherKey, when non-empty, installs the §5.3.3 inline encryption
	// engine on the flash array (data-bearing devices only).
	CipherKey []byte
	// Faults, when enabled, installs deterministic flash fault injection
	// (program/erase failures, read retry, wear-out) on the device. Every
	// kind absorbs them with the STL's recovery machinery — the baseline's
	// block device owns an STL's dies — and Report's Reliability shows them.
	Faults nvm.FaultPlan
}

// PrototypeConfig reproduces the paper's evaluation platform (§6.1): a
// 32-channel, 8-bank, 4 KB-page SSD reached over NVMe-oF, 10%
// over-provisioning, and the paper's 256x256 building blocks for 8-byte
// elements (BBMultiplier 2). The flash array is sized to hold datasetBytes
// plus slack, keeping phantom-mode state maps proportional to the
// experiment instead of the paper's full 2 TB.
func PrototypeConfig(datasetBytes int64, phantom bool) Config {
	geo := nvm.Geometry{Channels: 32, Banks: 8, PagesPerBlock: 256, PageSize: 4096}
	dies := int64(geo.Channels * geo.Banks)
	needPages := ceilDiv64(datasetBytes*13/10, int64(geo.PageSize)) // dataset + 30% slack
	geo.BlocksPerBank = int(ceilDiv64(ceilDiv64(needPages, dies), int64(geo.PagesPerBlock)))
	if geo.BlocksPerBank < 4 {
		geo.BlocksPerBank = 4
	}
	stlCfg := stl.DefaultConfig()
	stlCfg.BBMultiplier = 2
	return Config{
		Geometry: geo,
		Timing:   EvalTiming(),
		Phantom:  phantom,
		STL:      stlCfg,
	}
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// System is one instantiated configuration.
type System struct {
	Kind Kind
	Cfg  Config

	Dev *nvm.Device

	FTL *stl.LBA // Baseline only: the block device
	STL *stl.STL // SoftwareNDS and HardwareNDS

	// BlockedAssembly declares that the consumer kernels accept objects in
	// building-block-tiled layout (e.g. tensor kernels operating on tiles),
	// so assembly copies whole pages instead of per-extent fragments.
	BlockedAssembly bool

	res [numElements]sim.Resource // the model's timelines, by element
}

// assemblyChunks is the number of discrete copies object assembly performs.
func (s *System) assemblyChunks(st OpStats) int {
	if s.BlockedAssembly {
		return int(st.PagesRead)
	}
	return st.Extents
}

// New builds a system of the given kind.
func New(kind Kind, cfg Config) (*System, error) {
	// Per-kind cache placement: the building-block cache belongs to the STL,
	// so Baseline (FTL, no STL) cannot have one; the NDS kinds differ only in
	// which DRAM backs it.
	switch kind {
	case Baseline:
		cfg.STL.CacheBytes = 0
		cfg.STL.PrefetchDepth = 0
		cfg.STL.CacheDRAMBandwidth = 0
	case SoftwareNDS:
		if cfg.STL.CacheBytes > 0 && cfg.STL.CacheDRAMBandwidth == 0 {
			cfg.STL.CacheDRAMBandwidth = hostCacheDRAMBW
		}
	case HardwareNDS:
		if cfg.STL.CacheBytes > 0 && cfg.STL.CacheDRAMBandwidth == 0 {
			cfg.STL.CacheDRAMBandwidth = ctrlCacheDRAMBW
		}
	}
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, cfg.Phantom)
	if err != nil {
		return nil, err
	}
	if len(cfg.CipherKey) > 0 {
		eng, err := crypt.New(cfg.CipherKey)
		if err != nil {
			return nil, err
		}
		if err := dev.SetCipher(eng); err != nil {
			return nil, err
		}
	}
	if cfg.Faults.Enabled() {
		dev.SetFaultPlan(cfg.Faults)
	}
	s := &System{
		Kind: kind,
		Cfg:  cfg,
		Dev:  dev,
	}
	switch kind {
	case Baseline:
		s.FTL, err = stl.NewLBA(dev, cfg.STL)
	case SoftwareNDS, HardwareNDS:
		// Software NDS runs the STL on the host and the model books no
		// controller element for it; hardware NDS runs it in the controller.
		s.STL, err = stl.New(dev, cfg.STL)
	default:
		err = fmt.Errorf("system: unknown kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close gives back at once the memory of the system's device: the reverse
// map, timelines and page frames of its STL or of its block device
// (stl.STL.Close), which otherwise goes when the system is collected. A
// closed system must not be used; a second Close does nothing.
func (s *System) Close() error {
	switch {
	case s.FTL != nil:
		return s.FTL.Close()
	case s.STL != nil:
		return s.STL.Close()
	}
	s.Dev.Close()
	return nil
}

// ResetTimelines zeroes every resource timeline (host CPU, link, controller,
// device) without touching stored data, so an experiment phase starts from a
// quiet system.
func (s *System) ResetTimelines() {
	for i := range s.res {
		s.res[i].Reset()
	}
	s.Dev.ResetTimeline()
}

// OpStats is the per-operation record: the STL's stl.RequestStats, on which
// command fills in Done, RawBytes, Pages and Commands. The baseline
// operations, which have no STL beneath them, fill in Bytes and Extents too.
type OpStats = stl.RequestStats

// pageSize is a small convenience.
func (s *System) pageSize() int64 { return int64(s.Cfg.Geometry.PageSize) }
