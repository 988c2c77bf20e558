package system

import (
	"strings"
	"testing"

	"nds/internal/stl"
)

func TestReportCapturesBottlenecks(t *testing.T) {
	cfg := PrototypeConfig(32<<20, true)
	s, err := New(HardwareNDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := s.STL.CreateSpace(8, []int64{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	v, err := stl.NewView(sp, []int64{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if _, _, err := s.STL.WritePartition(0, v, []int64{i, 0}, []int64{256, 2048}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetTimelines()
	_, st, err := s.NDSRead(0, v, []int64{1, 1}, []int64{512, 512})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report(st.Done)
	// A tile read through NDS engages every channel.
	if got := r.ActiveChannels(); got != cfg.Geometry.Channels {
		t.Errorf("active channels = %d, want %d", got, cfg.Geometry.Channels)
	}
	if r.DeviceReads == 0 {
		t.Error("no device reads recorded")
	}
	if r.CtrlTranslate == 0 {
		t.Error("hardware NDS should charge controller translation")
	}
	if r.LinkBusy == 0 {
		t.Error("link busy missing")
	}
	if r.AvgChannel <= 0 || r.MaxChannel < r.AvgChannel*(1-1e-9) {
		t.Errorf("channel stats inconsistent: avg %.3f max %.3f", r.AvgChannel, r.MaxChannel)
	}
	out := r.String()
	for _, want := range []string{"hardware-nds", "channels:", "device ops:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report string missing %q:\n%s", want, out)
		}
	}
}

func TestReportBaselineColumnFetchShowsP3(t *testing.T) {
	// A column fetch on the row-store baseline engages few channels — the
	// report makes problem [P3] visible.
	cfg := PrototypeConfig(32<<20, true)
	s, err := New(Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FTL.WritePages(0, 0, nil, 8192); err != nil {
		t.Fatal(err)
	}
	s.ResetTimelines()
	rowBytes := int64(2048 * 8)
	var runs []Run
	for r := int64(0); r < 2048; r++ {
		runs = append(runs, Run{Off: r * rowBytes, Len: 256 * 8})
	}
	_, st, err := s.BaselineRead(0, runs, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report(st.Done)
	if got := r.ActiveChannels(); got >= cfg.Geometry.Channels/2 {
		t.Errorf("column fetch engaged %d/%d channels; [P3] should leave most idle",
			got, cfg.Geometry.Channels)
	}
	if r.GC.Erases != 0 {
		t.Error("unexpected GC during reads")
	}
}
