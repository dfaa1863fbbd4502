package trace

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// CSVWriter is the Consumer that writes events as a flat time series, one
// row each as they arrive, under the header
//
//	ts_ns,dur_ns,phase,group,track,name,cat,args
//
// args are rendered as semicolon-separated key=value pairs. It feeds plotting
// tools that do not speak the Chrome trace format. Write errors are sticky and
// reported by Close.
type CSVWriter struct {
	w    *bufio.Writer
	buf  []byte
	args []byte
}

// NewCSVWriter starts a series on w with its header row.
func NewCSVWriter(w io.Writer) *CSVWriter {
	cw := &CSVWriter{w: bufio.NewWriter(w)}
	cw.w.WriteString("ts_ns,dur_ns,phase,group,track,name,cat,args\n")
	return cw
}

// Event writes e's row.
func (cw *CSVWriter) Event(e StreamEvent) {
	args := cw.args[:0]
	for k, a := range e.Args {
		if k > 0 {
			args = append(args, ';')
		}
		args = append(append(args, a.Key...), '=')
		args = a.appendText(args)
	}
	cw.args = args
	b := strconv.AppendInt(cw.buf[:0], e.TS, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, e.Dur, 10)
	b = append(b, ',', e.Ph, ',')
	b = appendCSVField(b, e.Group)
	b = append(b, ',')
	b = appendCSVField(b, e.Track)
	b = append(b, ',')
	b = appendCSVField(b, e.Name)
	b = append(b, ',')
	b = appendCSVField(b, e.Cat)
	b = append(b, ',')
	b = appendCSVField(b, string(args))
	cw.buf = append(b, '\n')
	cw.w.Write(cw.buf)
}

// Close flushes the series, returning the first write error.
func (cw *CSVWriter) Close() error { return cw.w.Flush() }

// appendCSVField appends v, quoted when it holds a comma, quote or newline.
func appendCSVField(dst []byte, v string) []byte {
	if !strings.ContainsAny(v, ",\"\n") {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	dst = append(dst, strings.ReplaceAll(v, `"`, `""`)...)
	return append(dst, '"')
}
