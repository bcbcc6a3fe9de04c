package main

import (
	"sort"
	"time"

	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/sim"
)

// span names one kind of wrapped call. Every span is recorded from the
// benchmark's own decorators around a layer's public interface; the
// simulator itself carries no probes.
type span int

const (
	spanQdiscEnq       span = iota // Enqueue on a FIFO or FQ-CoDel
	spanQdiscDeq                   // Dequeue on a FIFO or FQ-CoDel
	spanCoreEnq                    // Enqueue on the Cebinae LBF
	spanCoreDeq                    // Dequeue on the Cebinae LBF (feeds its hhcache)
	spanTCPAck                     // tcp.Conn.Deliver: ACK processing and the sends it clocks out
	spanTCPData                    // tcp.Receiver.Deliver: data receive and the ACK it emits
	spanReplaySink                 // replay.Sink.Deliver
	spanReplayFeedback             // replay.Source.Deliver: closed-loop feedback
	numSpans
)

// epoch anchors the monotonic clock the spans read: time.Since on a
// monotonic time is a single runtime clock read.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// tracer accumulates self time and counts per span kind. Spans nest
// (an ACK's processing enqueues the packets it clocks out), so each span
// subtracts the time of the spans it encloses. A span's two clock reads
// cost one calibrated pair (probe): half of it falls inside the span and
// half in its parent, and both halves are removed, so per-call times
// describe the layer rather than the probe.
type tracer struct {
	probe int64
	// open is the enclosed-span time of the innermost open span; at
	// depth zero it totals every top-level span, i.e. the time inside
	// Engine.Run that was not the engine's own.
	open  int64
	self  [numSpans]int64
	calls [numSpans]uint64
	// hits counts non-nil Dequeue results; refused counts Enqueue calls
	// that returned false.
	hits    [numSpans]uint64
	refused [numSpans]uint64
	// Engine.Pending() sampled at every qdisc enqueue.
	pendingSum, pendingN uint64
	pendingMax           int
}

func newTracer(probe int64) *tracer { return &tracer{probe: probe} }

func (t *tracer) begin() (start, saved int64) {
	saved = t.open
	t.open = 0
	return clock(), saved
}

func (t *tracer) end(s span, start, saved int64) {
	d := clock() - start
	t.self[s] += d - t.open - t.probe/2
	t.calls[s]++
	t.open = saved + d + t.probe/2
}

// engineSelf returns the self time of an Engine.Run call that took
// runNs: whatever no wrapped span accounts for. That is the engine's
// dispatch (heap and timing wheel), netem's devices and links, and every
// timer handler the benchmark cannot wrap from outside (TCP pacing and
// RTO, replay send ticks, the Cebinae control loop, the fluid
// controller), plus the backbone's scoring tap.
func (t *tracer) engineSelf(runNs int64) int64 { return runNs - t.open }

// wrapDevices installs a timing decorator in front of every device's
// qdisc on the given nodes. Cebinae ports record core spans, every other
// discipline qdisc spans.
func (t *tracer) wrapDevices(nodes []*netem.Node) {
	for _, n := range nodes {
		for _, dev := range n.Devices() {
			q := &tracedQdisc{inner: dev.Qdisc(), eng: n.Engine(), tr: t, enq: spanQdiscEnq, deq: spanQdiscDeq}
			if _, ok := q.inner.(*core.Qdisc); ok {
				q.enq, q.deq = spanCoreEnq, spanCoreDeq
			}
			dev.SetQdisc(q)
		}
	}
}

// wrap returns a timing decorator for a transport endpoint.
func (t *tracer) wrap(ep netem.Endpoint, s span) netem.Endpoint {
	return &tracedEndpoint{inner: ep, tr: t, s: s}
}

// tracedQdisc times a device's queue discipline. It forwards ShiftTime
// so fluid fast-forward skips still reach the wrapped discipline.
type tracedQdisc struct {
	inner    netem.Qdisc
	eng      *sim.Engine
	tr       *tracer
	enq, deq span
}

func (q *tracedQdisc) Enqueue(p *packet.Packet) bool {
	t := q.tr
	pend := q.eng.Pending()
	t.pendingSum += uint64(pend)
	t.pendingN++
	if pend > t.pendingMax {
		t.pendingMax = pend
	}
	start, saved := t.begin()
	ok := q.inner.Enqueue(p)
	t.end(q.enq, start, saved)
	if !ok {
		t.refused[q.enq]++
	}
	return ok
}

func (q *tracedQdisc) Dequeue() *packet.Packet {
	start, saved := q.tr.begin()
	p := q.inner.Dequeue()
	q.tr.end(q.deq, start, saved)
	if p != nil {
		q.tr.hits[q.deq]++
	}
	return p
}

func (q *tracedQdisc) Len() int         { return q.inner.Len() }
func (q *tracedQdisc) BytesQueued() int { return q.inner.BytesQueued() }

func (q *tracedQdisc) ShiftTime(d sim.Time) {
	if s, ok := q.inner.(netem.TimeShifter); ok {
		s.ShiftTime(d)
	}
}

// tracedEndpoint times a transport endpoint's Deliver.
type tracedEndpoint struct {
	inner netem.Endpoint
	tr    *tracer
	s     span
}

func (e *tracedEndpoint) Deliver(p *packet.Packet) {
	start, saved := e.tr.begin()
	e.inner.Deliver(p)
	e.tr.end(e.s, start, saved)
}

// calibrateProbe measures the host cost of one clock-read pair: the
// median over several batches of back-to-back read pairs.
func calibrateProbe() int64 {
	const batches, pairs = 9, 1 << 18
	costs := make([]float64, batches)
	for b := range costs {
		t0 := clock()
		for i := 0; i < pairs; i++ {
			clock()
			clock()
		}
		costs[b] = float64(clock()-t0) / pairs
	}
	sort.Float64s(costs)
	return int64(costs[batches/2] + 0.5)
}
