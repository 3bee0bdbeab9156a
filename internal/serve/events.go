package serve

import (
	"sync"

	"puffer/internal/obs"
)

// Event is one progress notification of a running job, streamed to
// watchers as a server-sent event whose SSE event name is Type.
type Event struct {
	// Seq is the event's position in the job's stream, monotonically
	// increasing from 1; late subscribers replay the retained tail and
	// can detect gaps.
	Seq int `json:"seq"`
	// Type is "state", "stage", "sample", or "log".
	Type string `json:"type"`

	// State accompanies type=state (and carries the final state on the
	// stream-terminating event).
	State JobState `json:"state,omitempty"`
	// Error carries the failure message on a terminal state event.
	Error string `json:"error,omitempty"`

	// Stage and StageStatus accompany type=stage, with the stage's
	// iteration count and wall milliseconds: status "done" for a stage that
	// completed (its checkpoint is already spooled), "canceled" for one a
	// cancel, deadline or drain cut, "failed" for one whose engine failed.
	Stage       string  `json:"stage,omitempty"`
	StageStatus string  `json:"stage_status,omitempty"`
	Iters       int     `json:"iters,omitempty"`
	WallMS      float64 `json:"wall_ms,omitempty"`

	// Series/Step/Value accompany type=sample: one metric observation
	// (place.hpwl, place.overflow, explore.trial.score, …) forwarded
	// live from the job's metrics registry.
	Series string  `json:"series,omitempty"`
	Step   int     `json:"step,omitempty"`
	Value  float64 `json:"value,omitempty"`

	// Line accompanies type=log: one flow stage-log line.
	Line string `json:"line,omitempty"`
}

// hubRing is the number of events a hub retains for replay to late
// subscribers. Metric samples arrive per optimizer call (not per Nesterov
// iteration), so a few thousand events cover any realistic job.
const hubRing = 4096

// Hub is one job's progress broadcast: it retains a ring of recent events
// and fans new ones out to live subscribers. Subscribers that fall behind
// a full channel buffer have events dropped (the Seq gap tells them);
// progress streaming must never backpressure the placement engine. The
// end of the stream is not subject to that: the ring always holds the
// newest event, so a subscriber whose channel closed reads what it missed
// — the terminal state last — from since.
type Hub struct {
	mu     sync.Mutex
	seq    int
	ring   []Event
	subs   map[chan Event]struct{}
	closed bool
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan Event]struct{})}
}

// Publish stamps e's sequence number, retains it, and fans it out.
func (h *Hub) Publish(e Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	e.Seq = h.seq
	h.ring = append(h.ring, e)
	if len(h.ring) > hubRing {
		h.ring = h.ring[len(h.ring)-hubRing:]
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop, Seq exposes the gap
		}
	}
	h.mu.Unlock()
}

// Close ends the stream: subscriber channels are closed after the retained
// events, and future Publish calls are ignored.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan Event]struct{}{}
}

// Subscribe returns the replay of retained events, plus a channel of live
// events (closed when the job's stream ends) and a cancel function the
// subscriber must call when done. On an already-closed hub the channel
// comes back closed and replay still carries the tail of the stream.
func (h *Hub) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = h.sinceLocked(0)
	// Sized to ride out a burst of samples while a watcher's socket
	// drains; overflow drops (see Hub).
	ch = make(chan Event, 256)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
}

// since returns the retained events with Seq above seq, oldest first.
func (h *Hub) since(seq int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sinceLocked(seq)
}

// sinceLocked is since with h.mu held. The ring is contiguous in Seq and
// ends at h.seq.
func (h *Hub) sinceLocked(seq int) []Event {
	skip := seq - (h.seq - len(h.ring))
	if skip < 0 {
		skip = 0
	}
	if skip >= len(h.ring) {
		return nil
	}
	return append([]Event(nil), h.ring[skip:]...)
}

// hubSink adapts a Hub to obs.Sink, so every metric sample a job's
// registry observes is also a live progress event.
type hubSink struct{ h *Hub }

// Observe implements obs.Sink.
func (s hubSink) Observe(series string, sm obs.Sample) {
	s.h.Publish(Event{Type: "sample", Series: series, Step: sm.Step, Value: sm.Value})
}

// Flush implements obs.Sink.
func (s hubSink) Flush() error { return nil }
