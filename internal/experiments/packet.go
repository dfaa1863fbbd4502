package experiments

import (
	"fmt"

	"lmas/internal/cluster"
	"lmas/internal/dsmsort"
	"lmas/internal/plot"
)

// PacketOptions parameterizes TAB-PACKET: how the packet size used on the
// interconnect trades message overhead against pipelining granularity
// ("the size of the packet may be limited by a memory bound on the
// ASU-resident sorting functor", Section 3.2).
type PacketOptions struct {
	N           int
	ASUs        int
	Alpha, Beta int
	Packets     []int
	Base        cluster.Params
	Seed        int64
}

// DefaultPacketOptions spans tiny (overhead-bound) to huge (bursty)
// packets.
func DefaultPacketOptions() PacketOptions {
	return PacketOptions{
		N:       1 << 18,
		ASUs:    16,
		Alpha:   16,
		Beta:    64,
		Packets: []int{4, 16, 64, 256, 1024},
		Base:    cluster.DefaultParams(),
		Seed:    42,
	}
}

// PacketCell is one packet size's measurements.
type PacketCell struct {
	PacketRecords int
	Pass1Secs     float64
	NetBytes      int64
	// OverheadFrac is header bytes over total interconnect bytes.
	OverheadFrac float64
}

// PacketResult holds the sweep.
type PacketResult struct {
	Options PacketOptions
	Cells   []PacketCell
}

// Table renders the sweep.
func (r *PacketResult) Table() *plot.Table {
	t := plot.NewTable("TAB-PACKET: interconnect packet-size sweep (active placement)",
		"packet(records)", "pass1(s)", "net(MB)", "header overhead")
	for _, c := range r.Cells {
		t.AddRow(c.PacketRecords, c.Pass1Secs, float64(c.NetBytes)/1e6,
			fmt.Sprintf("%.1f%%", 100*c.OverheadFrac))
	}
	return t
}

// RunPacket sweeps packet sizes over the active run-formation pass.
func RunPacket(opt PacketOptions) (*PacketResult, error) {
	res := &PacketResult{Options: opt}
	for _, pr := range opt.Packets {
		params := opt.Base
		params.Hosts, params.ASUs = 1, opt.ASUs
		rs, err := pass1Cells(params, opt.N, dsmsort.Config{
			Alpha: opt.Alpha, Beta: opt.Beta, Gamma2: 2,
			PacketRecords: pr, Seed: opt.Seed,
		}, dsmsort.Active)
		if err != nil {
			return nil, fmt.Errorf("packet=%d: %w", pr, err)
		}
		r := rs[0]
		payload := int64(2*opt.N) * int64(params.RecordSize) // in + out
		overhead := float64(r.NetBytes-payload) / float64(r.NetBytes)
		if overhead < 0 {
			overhead = 0
		}
		res.Cells = append(res.Cells, PacketCell{
			PacketRecords: pr,
			Pass1Secs:     r.Elapsed.Seconds(),
			NetBytes:      r.NetBytes,
			OverheadFrac:  overhead,
		})
	}
	return res, nil
}
