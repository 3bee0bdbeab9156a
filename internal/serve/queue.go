package serve

import (
	"errors"
	"math"
	"sync"
	"time"
)

// ErrQueueFull is returned by Queue.TryPush when the queue is at capacity.
// The API layer maps it to 429 Too Many Requests with a Retry-After header
// — admission control happens at the door, so a traffic burst costs the
// submitter a retry instead of costing the daemon unbounded memory.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrQueueClosed is returned once the queue has been closed for draining.
var ErrQueueClosed = errors.New("serve: job queue closed")

// DefaultTenant is the lane of submissions that name no tenant — the only
// lane a standalone daemon ever has.
const DefaultTenant = "default"

// lane is one tenant's FIFO plus its dispatch token bucket.
type lane struct {
	ids    []string
	tokens float64
	last   time.Time
}

// take consumes one token if the bucket (rate r/s, burst b) has one,
// refilling lazily; otherwise it reports how long until one accrues.
func (l *lane) take(r float64, b int, now time.Time) (ok bool, wait time.Duration) {
	if l.last.IsZero() {
		l.tokens = float64(b)
	} else {
		l.tokens = math.Min(float64(b), l.tokens+now.Sub(l.last).Seconds()*r)
	}
	l.last = now
	if l.tokens < 1 {
		return false, time.Duration((1 - l.tokens) / r * float64(time.Second))
	}
	l.tokens--
	return true, 0
}

// Queue is the one bounded admission queue between the HTTP surface and
// the backend. It carries job IDs only — the durable job state lives in
// the spool — so a canceled-while-queued job is simply skipped when it is
// popped and its manifest checked. IDs wait in per-tenant FIFO lanes
// served round-robin, so one tenant flooding the daemon delays only
// itself; with a rate set, each lane additionally spends a token per pop.
// The capacity bounds the total across lanes.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  map[string]*lane
	order  []string // lane round-robin order
	rr     int
	n      int // queued IDs across lanes
	cap    int
	rate   float64 // tokens/second per lane; 0 = unlimited
	burst  int
	closed bool

	// Completion-time EWMA, fed by the backend runs, used to estimate a
	// Retry-After hint for rejected submitters.
	ewmaSec float64
}

// NewQueue builds a queue admitting at most capacity jobs (min 1). A
// positive rate limits each tenant lane to rate pops per second with the
// given burst (min 1).
func NewQueue(capacity int, rate float64, burst int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if burst < 1 {
		burst = 1
	}
	q := &Queue{cap: capacity, rate: rate, burst: burst, lanes: map[string]*lane{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Len returns the current queue depth.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return q.cap }

func (q *Queue) push(tenant, id string, force, front bool) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if !force && q.n >= q.cap {
		return ErrQueueFull
	}
	l, ok := q.lanes[tenant]
	if !ok {
		l = &lane{}
		q.lanes[tenant] = l
		q.order = append(q.order, tenant)
	}
	if front {
		l.ids = append([]string{id}, l.ids...)
	} else {
		l.ids = append(l.ids, id)
	}
	q.n++
	q.cond.Signal()
	return nil
}

// TryPush admits id to the tenant's lane, or fails fast with ErrQueueFull /
// ErrQueueClosed. The capacity check and the append are one critical
// section: concurrent submitters can never overshoot the cap.
func (q *Queue) TryPush(tenant, id string) error { return q.push(tenant, id, false, false) }

// ForcePush admits id even beyond capacity. Recovery uses it so a spool
// holding more interrupted jobs than the configured capacity still
// re-admits every one of them (the memory is already accounted for: the
// jobs exist on disk).
func (q *Queue) ForcePush(tenant, id string) error { return q.push(tenant, id, true, false) }

// PushFront returns id to the head of its lane, beyond capacity: a job the
// backend handed back ("retry elsewhere") keeps its place in line.
func (q *Queue) PushFront(tenant, id string) error { return q.push(tenant, id, true, true) }

// Pop blocks until an ID is available (returning ok=true) or the queue is
// closed and empty (ok=false). Lanes are served round-robin; a lane whose
// token bucket is empty is passed over until a token accrues.
func (q *Queue) Pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		id, wait := q.takeLocked(time.Now())
		if id != "" {
			return id, true
		}
		if q.n == 0 && q.closed {
			return "", false
		}
		if wait > 0 {
			// Work is waiting on tokens only: wake when the first accrues.
			// The callback takes the lock so it cannot fire before Wait
			// has released it.
			t := time.AfterFunc(wait, func() {
				q.mu.Lock()
				defer q.mu.Unlock()
				q.cond.Broadcast()
			})
			q.cond.Wait()
			t.Stop()
		} else {
			q.cond.Wait()
		}
	}
}

// takeLocked removes the next ID in round-robin order. With nothing
// poppable it returns "" and, when rate limits are the reason, the shortest
// wait until a lane has a token.
func (q *Queue) takeLocked(now time.Time) (id string, wait time.Duration) {
	for i := 0; i < len(q.order); i++ {
		at := (q.rr + i) % len(q.order)
		l := q.lanes[q.order[at]]
		if len(l.ids) == 0 {
			continue
		}
		if q.rate > 0 && !q.closed {
			ok, w := l.take(q.rate, q.burst, now)
			if !ok {
				if wait == 0 || w < wait {
					wait = w
				}
				continue
			}
		}
		id, l.ids = l.ids[0], l.ids[1:]
		q.n--
		q.rr = (at + 1) % len(q.order)
		return id, 0
	}
	return "", wait
}

// Close stops admission and wakes blocked Pops; queued IDs still drain.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// ObserveJobDuration feeds one completed job's wall time into the
// Retry-After estimator (EWMA, alpha 0.3).
func (q *Queue) ObserveJobDuration(d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	sec := d.Seconds()
	if q.ewmaSec == 0 {
		q.ewmaSec = sec
	} else {
		q.ewmaSec = 0.7*q.ewmaSec + 0.3*sec
	}
}

// RetryAfter estimates how long a rejected submitter should wait for a
// slot to open: the time for slots parallel runners to chew through one
// queue slot, clamped to [1s, 10min]. With no completed jobs yet the floor
// applies.
func (q *Queue) RetryAfter(slots int) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if slots < 1 {
		slots = 1
	}
	sec := math.Ceil(q.ewmaSec * float64(q.n+1) / float64(slots))
	return time.Duration(math.Max(1, math.Min(600, sec))) * time.Second
}
