package experiments

import (
	"nds/internal/accel"
	"nds/internal/nvm"
	"nds/internal/system"
)

// Figure 3: effective data-processing rate or I/O bandwidth of each system
// component versus matrix dimension. The compute curves come from the
// calibrated accelerator model; the storage curves are *measured* on the
// device models by fetching matrices of each size with one command.

// Fig3Row is one x-position of Figure 3 (matrix of Dim x Dim 4-byte
// elements, as in the paper's GEMM microbenchmark). Rates in MB/s.
type Fig3Row struct {
	Dim          int64
	CUDACores    float64
	TensorCores  float64
	NVMeoF       float64
	InternalSSD  float64 // 32-channel datacenter SSD, internal bandwidth
	ConsumerNVMe float64 // 8-channel consumer SSD, external bandwidth
}

// Figure3 sweeps dimensions 32..16384.
func Figure3() ([]Fig3Row, error) {
	cuda, tcu := accel.CUDACores(), accel.TensorCores()
	nvmeof, consumer := system.NVMeoF(), system.ConsumerNVMe()

	var rows []Fig3Row
	for dim := int64(32); dim <= 16384; dim *= 2 {
		bytes := dim * dim * 4
		r := Fig3Row{
			Dim:          dim,
			CUDACores:    cuda.Rate(dim) / 1e6,
			TensorCores:  tcu.Rate(dim) / 1e6,
			NVMeoF:       nvmeof.EffectiveBandwidth(bytes) / 1e6,
			ConsumerNVMe: consumer.EffectiveBandwidth(bytes) / 1e6,
		}
		ib, err := internalBandwidth(bytes)
		if err != nil {
			return nil, err
		}
		r.InternalSSD = ib
		rows = append(rows, r)
	}
	return rows, nil
}

// internalBandwidth measures the 32-channel device's internal read bandwidth
// for one contiguous fetch of the given size: pages striped across channels,
// read with no interconnect in the way.
func internalBandwidth(bytes int64) (float64, error) {
	cfg := system.PrototypeConfig(max(bytes, 1<<20), true)
	dev, err := nvm.NewDevice(cfg.Geometry, cfg.Timing, true)
	if err != nil {
		return 0, err
	}
	ps := int64(cfg.Geometry.PageSize)
	pages := (bytes + ps - 1) / ps
	lay := dev.Layout()
	words := make([]nvm.Word, pages)
	for i := range words {
		p := nvm.PPA{
			Channel: i % cfg.Geometry.Channels,
			Bank:    (i / cfg.Geometry.Channels) % cfg.Geometry.Banks,
		}
		flat := i / (cfg.Geometry.Channels * cfg.Geometry.Banks)
		p.Block = flat / cfg.Geometry.PagesPerBlock
		p.Page = flat % cfg.Geometry.PagesPerBlock
		words[i] = lay.Word(p)
	}
	done, err := dev.ReadWords(0, words, make([][]byte, pages))
	if err != nil {
		return 0, err
	}
	return mbps(bytes, done), nil
}
