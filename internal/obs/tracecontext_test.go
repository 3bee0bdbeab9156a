package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("client.submit")
	tc := sp.TraceContext()
	if !tc.Valid() {
		t.Fatalf("span context invalid: %+v", tc)
	}
	header := tc.Traceparent()
	// Shape: 00-<32 hex>-<16 hex>-01.
	parts := strings.Split(header, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		t.Fatalf("bad traceparent %q", header)
	}
	got, err := ParseTraceparent(header)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", header, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v want %+v", got, tc)
	}
	sp.End()
}

// malformedTraceparents are header values ParseTraceparent must reject,
// one per rule it enforces.
var malformedTraceparents = []string{
	"",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",       // 3 fields
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-00", // 5 fields
	"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",      // short trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902-01",      // short span id
	"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",    // non-hex trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bg-01",    // non-hex span id
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",    // uppercase
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // reserved version
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // non-hex version
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",    // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",    // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-xx",    // non-hex flags
}

// sampleTraceparent is the W3C specification's example header.
const sampleTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, s := range malformedTraceparents {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", s)
		}
	}
	tc, err := ParseTraceparent(sampleTraceparent)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", sampleTraceparent, err)
	}
	if tc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		tc.SpanID.String() != "00f067aa0ba902b7" || tc.Flags != 0x01 {
		t.Fatalf("parsed %+v", tc)
	}
}

// FuzzParseTraceparent feeds arbitrary header values, as any HTTP client
// can send them, to the parser: it must not panic, whatever it accepts must
// be a valid context, and a version-00 value must re-encode to itself.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(sampleTraceparent)
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	for _, s := range malformedTraceparents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, tc)
		}
		if !strings.HasPrefix(s, "00-") {
			return
		}
		enc := tc.Traceparent()
		if enc != s {
			t.Fatalf("ParseTraceparent(%q).Traceparent() = %q", s, enc)
		}
		again, err := ParseTraceparent(enc)
		if err != nil || again != tc {
			t.Fatalf("re-parse of %q: %+v, %v; want %+v", enc, again, err, tc)
		}
	})
}

// TestTracerAdoptsRemoteContext covers the propagation contract: a tracer
// built from an incoming traceparent keeps the caller's trace ID and
// parents its root spans under the caller's span.
func TestTracerAdoptsRemoteContext(t *testing.T) {
	client := NewTracer()
	clientSpan := client.StartSpan("client.submit")
	tc := clientSpan.TraceContext()

	server := NewTracerWith(tc)
	if server.TraceID() != client.TraceID() {
		t.Fatalf("server trace id %s != client %s", server.TraceID(), client.TraceID())
	}
	job := server.StartSpanAt("serve.job", time.Now().Add(-time.Second))
	if got := job.TraceContext().TraceID; got != tc.TraceID {
		t.Fatalf("job span trace id %s", got)
	}
	if job.parent != tc.SpanID {
		t.Fatalf("root span parent %s, want remote %s", job.parent, tc.SpanID)
	}
	child := job.Child("place.gp")
	if child.parent != job.id {
		t.Fatal("child does not parent under job span")
	}
	child.End()
	// Retroactive child: the queue wait measured before the tracer existed.
	job.RecordChild("serve.queue_wait", time.Now().Add(-900*time.Millisecond), 800*time.Millisecond)
	job.End()
	clientSpan.End()

	var buf bytes.Buffer
	if err := server.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = ev.Args
		if ev.Args["trace_id"] != tc.TraceID.String() {
			t.Fatalf("event %s trace_id %v, want %s", ev.Name, ev.Args["trace_id"], tc.TraceID)
		}
		// Absolute timestamps: within a day of now (in µs since epoch).
		if now := float64(time.Now().UnixMicro()); ev.Ts < now-8.64e10 || ev.Ts > now+8.64e10 {
			t.Fatalf("event %s ts %v not absolute wall clock", ev.Name, ev.Ts)
		}
	}
	if byName["serve.job"]["parent_span_id"] != tc.SpanID.String() {
		t.Fatalf("serve.job parent %v, want %s", byName["serve.job"]["parent_span_id"], tc.SpanID)
	}
	jobID := byName["serve.job"]["span_id"]
	if byName["place.gp"]["parent_span_id"] != jobID || byName["serve.queue_wait"]["parent_span_id"] != jobID {
		t.Fatalf("children do not parent under serve.job: %v", byName)
	}
}

func TestSpanIDsUniqueAndNonzero(t *testing.T) {
	tr := NewTracer()
	seen := map[SpanID]bool{}
	root := tr.StartSpan("root")
	for i := 0; i < 1000; i++ {
		sp := root.Child("c")
		if sp.id.IsZero() {
			t.Fatal("zero span id")
		}
		if seen[sp.id] {
			t.Fatalf("duplicate span id %s", sp.id)
		}
		seen[sp.id] = true
	}
}

func TestMergeChromeTraces(t *testing.T) {
	client := NewTracer()
	csp := client.StartSpan("client.submit")
	server := NewTracerWith(csp.TraceContext())
	ssp := server.StartSpan("serve.job")
	ssp.End()
	csp.End()

	var cbuf, sbuf bytes.Buffer
	if err := client.WriteJSON(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteJSON(&sbuf); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	err := MergeChromeTraces(&merged,
		TracePart{Process: "pufferctl", Data: cbuf.Bytes()},
		TracePart{Process: "pufferd", Data: sbuf.Bytes()},
	)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace invalid: %v\n%s", err, merged.String())
	}
	// 2 metadata + 2 spans; every span shares one trace id but sits in its
	// own process lane.
	traceIDs := map[any]bool{}
	pids := map[int]bool{}
	var metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name != "process_name" {
				t.Fatalf("bad metadata event %+v", ev)
			}
		case "X":
			traceIDs[ev.Args["trace_id"]] = true
			pids[ev.PID] = true
		}
	}
	if metas != 2 || len(traceIDs) != 1 || len(pids) != 2 {
		t.Fatalf("metas=%d traceIDs=%v pids=%v", metas, traceIDs, pids)
	}

	// Malformed input is rejected, not silently dropped.
	if err := MergeChromeTraces(&bytes.Buffer{}, TracePart{Process: "x", Data: []byte("{")}); err == nil {
		t.Fatal("merged malformed trace")
	}
}
