package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Sink receives every series sample as it is observed. Implementations
// must be safe for concurrent Observe calls (series record from parallel
// exploration groups).
type Sink interface {
	Observe(series string, s Sample)
	Flush() error
}

// JSONLSink streams samples as one JSON object per line:
//
//	{"series":"place.hpwl","step":12,"value":123456}
//
// The stream is buffered; call Flush (or Registry.Flush) before reading
// the underlying writer.
type JSONLSink struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewJSONLSink wraps w in a buffered JSON-lines sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Observe implements Sink.
func (j *JSONLSink) Observe(series string, s Sample) {
	j.mu.Lock()
	fmt.Fprintf(j.w, `{"series":%q,"step":%d,"value":%g}`+"\n", series, s.Step, s.Value)
	j.mu.Unlock()
}

// Flush implements Sink.
func (j *JSONLSink) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Flush()
}
