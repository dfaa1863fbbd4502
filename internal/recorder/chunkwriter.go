package recorder

import "io"

// segChunk is how many bytes of lines the producer collects before handing
// them to the writer goroutine: large enough that a sort cell's 17 MB segment
// is ~65 write(2) calls, small enough that two of them are nothing to hold.
const segChunk = 256 << 10

// chunkWriter moves a segment's bytes to its file off the goroutine that
// produces them. The producer appends whole lines to buf and calls lineDone;
// once buf holds segChunk bytes it goes to the writer goroutine and the
// producer carries on in the other of the two buffers, so the kernel's copy
// overlaps the simulation (on one core it simply happens when the producer
// next blocks). With both buffers full the producer waits for a write to
// finish — a slow disk slows the run, it never grows memory.
//
// The goroutine starts in newChunkWriter and exits in close, which waits for
// it. After the first write error (reported once, to onErr) it keeps draining
// and dropping chunks, so the producer never blocks on a dead file.
type chunkWriter struct {
	buf  []byte
	full chan []byte // producer -> writer; closed by close
	// free returns written buffers to the producer. Capacity two, the number
	// of buffers in existence, so the writer never blocks on it.
	free chan []byte
	done chan struct{} // closed when the writer goroutine has exited
}

func newChunkWriter(w io.Writer, onErr func(error)) *chunkWriter {
	cw := &chunkWriter{
		buf:  make([]byte, 0, segChunk),
		full: make(chan []byte, 1),
		free: make(chan []byte, 2),
		done: make(chan struct{}),
	}
	cw.free <- make([]byte, 0, segChunk)
	go func() {
		defer close(cw.done)
		failed := false
		for b := range cw.full {
			if !failed {
				if _, err := w.Write(b); err != nil {
					onErr(err)
					failed = true
				}
			}
			cw.free <- b[:0]
		}
	}()
	return cw
}

// lineDone is called after each complete line appended to buf.
func (cw *chunkWriter) lineDone() {
	if len(cw.buf) >= segChunk {
		cw.full <- cw.buf
		cw.buf = <-cw.free
	}
}

// close writes what is buffered and returns once the writer goroutine has
// exited. The chunkWriter must not be used afterwards.
func (cw *chunkWriter) close() {
	if len(cw.buf) > 0 {
		cw.full <- cw.buf
	}
	close(cw.full)
	<-cw.done
}
