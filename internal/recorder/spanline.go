package recorder

import (
	"strconv"

	"lmas/internal/trace"
)

// appendSpanLine appends the segment line for sp — exactly the bytes of
// json.Marshal(Record{Span: sp}) plus a newline, field order and every
// omitempty of Span included — without reflection or allocation. It must
// track encoding/json byte for byte, not merely produce equal JSON: segments
// of one run recorded by two builds are compared with cmp (CI's neutrality
// gates, TestGoldenSegmentAndTrace). TestSpanLineMatchesJSON
// and FuzzSpanLine hold it to that, against an encoding/json mirror with
// any-valued args.
func appendSpanLine(dst []byte, sp *Span) []byte {
	dst = append(dst, `{"span":{"t_ns":`...)
	dst = strconv.AppendInt(dst, sp.T, 10)
	if sp.DurNs != 0 {
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, sp.DurNs, 10)
	}
	dst = append(dst, `,"ph":`...)
	dst = trace.AppendString(dst, sp.Ph)
	dst = append(dst, `,"group":`...)
	dst = trace.AppendString(dst, sp.Group)
	dst = append(dst, `,"track":`...)
	dst = trace.AppendString(dst, sp.Track)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(sp.TID), 10)
	if sp.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = trace.AppendString(dst, sp.Name)
	}
	if sp.Cat != "" {
		dst = append(dst, `,"cat":`...)
		dst = trace.AppendString(dst, sp.Cat)
	}
	if len(sp.Args) > 0 {
		dst = append(dst, `,"args":[`...)
		for i, a := range sp.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = a.AppendJSON(dst)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}\n"...)
}
