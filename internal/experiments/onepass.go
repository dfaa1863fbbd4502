package experiments

import (
	"errors"
	"fmt"

	"lmas/internal/dsmsort"
	"lmas/internal/onepass"
	"lmas/internal/records"
)

// OnePassRow is one input size (Spec.N) of TAB-ONEPASS: the NOW-Sort /
// MinuteSort-style one-pass sort (Section 7's related work) against
// DSM-Sort. One pass wins while the data fits in the sort nodes' memory
// (Params.HostMemRecords per host, kept small so the wall is reachable at
// emulation-friendly sizes) and cannot run at all beyond it; DSM-Sort pays a
// second pass but scales.
type OnePassRow struct {
	Spec
	// OnePassSecs is negative when the input exceeds the memory wall.
	OnePassSecs float64
	DSMSecs     float64
}

// OnePass measures both sorts on uniform input.
func OnePass(row OnePassRow) (OnePassRow, error) {
	cl, err := bareCluster(row.Params)
	if err != nil {
		return row, fmt.Errorf("onepass: %w", err)
	}
	in := dsmsort.MakeInput(cl, row.N, records.Uniform{}, row.Sort.Seed, row.Sort.PacketRecords)
	oneRes, err := onepass.Sort(cl, onepass.Config{
		SampleSize: 2048, PacketRecords: row.Sort.PacketRecords, Seed: row.Sort.Seed,
	}, in)
	var tooLarge *onepass.ErrTooLarge
	switch {
	case err == nil:
		row.OnePassSecs = oneRes.Elapsed.Seconds()
	case errors.As(err, &tooLarge):
		row.OnePassSecs = -1
	default:
		return row, fmt.Errorf("onepass n=%d: %w", row.N, err)
	}

	row.Sort.Placement = dsmsort.Active
	dsmRes, err := sortCell(row.Spec)
	if err != nil {
		return row, fmt.Errorf("dsmsort n=%d: %w", row.N, err)
	}
	row.DSMSecs = dsmRes.Elapsed.Seconds()
	return row, nil
}
