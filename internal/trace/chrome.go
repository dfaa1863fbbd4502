package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte for byte what json.Marshal(s)
// produces: `"` and `\` escaped, \b \f \n \r \t by name, other control bytes
// and the HTML-sensitive < > & as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped likewise. Stored segments and exported traces are
// compared with cmp, so the two must never drift; the differential and fuzz
// tests in internal/recorder hold them together.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ChromeWriter streams one Chrome trace-event JSON document ("JSON object
// format", loadable in Perfetto or chrome://tracing): name the processes and
// threads, write the events, Close. It is the only place the event layout is
// spelled out — Sink.WriteJSON and the run store's composed export both go
// through it. Write errors are sticky and reported by Close.
type ChromeWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int // array elements written so far
}

// NewChromeWriter starts a document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{w: bufio.NewWriter(w)}
	cw.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return cw
}

// open starts the next array element in the scratch buffer; emit writes it.
func (cw *ChromeWriter) open() []byte {
	if cw.n > 0 {
		return append(cw.buf[:0], ',', '\n')
	}
	return append(cw.buf[:0], '\n')
}

func (cw *ChromeWriter) emit(b []byte) {
	cw.n++
	cw.buf = b
	cw.w.Write(b)
}

func (cw *ChromeWriter) meta(kind string, pid int, tid int32, name string) {
	b := append(cw.open(), `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = AppendString(b, name)
	cw.emit(append(b, `}}`...))
}

// Process names process pid.
func (cw *ChromeWriter) Process(pid int, name string) { cw.meta("process_name", pid, 0, name) }

// Thread names thread tid of process pid.
func (cw *ChromeWriter) Thread(pid int, tid int32, name string) {
	cw.meta("thread_name", pid, tid, name)
}

// appendUsec renders a virtual-time nanosecond stamp as the microseconds the
// Chrome trace-event format expects, with fixed sub-microsecond precision so
// output is byte-stable.
func appendUsec(dst []byte, t Time) []byte {
	return strconv.AppendFloat(dst, float64(t)/1e3, 'f', 3, 64)
}

// Event writes e on thread e.TID of process pid; e.Group and e.Track are not
// used (Process and Thread carry the names). It fails on a phase a Sink never
// records (a stored span can hold anything), and then writes nothing for that
// event.
func (cw *ChromeWriter) Event(pid int, e StreamEvent) error {
	switch e.Ph {
	case phaseBegin, phaseEnd, phaseSpan, phaseInstant, phaseCounter:
	default:
		return fmt.Errorf("trace: event %q: unknown phase %q", e.Name, e.Ph)
	}
	b := append(cw.open(), `{"name":`...)
	b = AppendString(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = AppendString(b, e.Cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph)
	b = append(b, `","ts":`...)
	b = appendUsec(b, e.TS)
	if e.Ph == phaseSpan {
		b = append(b, `,"dur":`...)
		b = appendUsec(b, e.Dur)
	}
	if e.Ph == phaseInstant {
		b = append(b, `,"s":"t"`...) // thread-scoped instant
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.TID), 10)
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, a.Key)
			b = append(b, ':')
			b = a.appendValue(b)
		}
		b = append(b, '}')
	}
	cw.emit(append(b, '}'))
	return nil
}

// Close ends the document and flushes it, returning the first write error.
func (cw *ChromeWriter) Close() error {
	cw.w.WriteString("\n]}\n")
	return cw.w.Flush()
}
