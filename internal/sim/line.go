package sim

import "sort"

// Line is a delay line — the fifth scheduling surface (see the package
// comment). It exists for the propagation leg of a link: a FIFO of
// deliveries whose dispatch keys arrive in non-decreasing order. A
// transmit completion at now pushes the key (now+d, now, seq), so for a
// fixed delay d the keys of every local push only grow, whichever link
// made them: one line per distinct delay (Engine.DelayLine) carries every
// link of that delay, each entry naming its own handler. Each entry keeps
// the exact (at, schedAt, seq) key a pooled AtCall issued at push time
// would have had, but only the line's head sits on the engine's heap: the
// heap holds one event per non-empty delay class instead of one per entry,
// and the dispatch order is identical to one event per entry.
//
// A caller may also own a Line, and the zero Line is ready to use: a
// cut-link receiver must own one, because its injections carry past
// emission stamps and so cannot share a FIFO with local pushes. Entries
// live in a power-of-two ring that grows to the line's peak occupancy and
// is then reused, so a steady stream of pushes never allocates.
type Line struct {
	// ev is the heap residency of the head entry; ev.arg permanently
	// back-points to the Line.
	ev   Event
	ring []lineEntry
	head int // ring index of the head entry
	n    int // entries queued, head included
}

// lineEntry is one queued delivery, its handler and its dispatch key.
type lineEntry struct {
	at, schedAt Time
	seq         uint64
	h           Handler
	arg         any
}

// delayLine is one entry of the engine's shared-line registry.
type delayLine struct {
	d    Time
	line *Line
}

// DelayLine returns the engine's shared line for propagation delay d,
// creating it on first use. Every caller that pushes (now+d, now) onto it
// keeps it in dispatch order, so all local links of one delay share it;
// callers look it up once, when the link is built. The registry is a
// slice sorted by delay: a handful of distinct delays is the common case,
// and lookup stays logarithmic when every link has its own.
func (e *Engine) DelayLine(d Time) *Line {
	i := sort.Search(len(e.lines), func(i int) bool { return e.lines[i].d >= d })
	if i < len(e.lines) && e.lines[i].d == d {
		return e.lines[i].line
	}
	l := &Line{}
	e.lines = append(e.lines, delayLine{})
	copy(e.lines[i+1:], e.lines[i:])
	e.lines[i] = delayLine{d: d, line: l}
	return l
}

// PushLine appends a delivery of h.OnEvent(arg) at absolute virtual time
// at (clamped to now) to l, ordered among same-instant events as if it had
// been scheduled when the clock read from. from is normally Now(); it may
// lie in the engine's past for a cross-engine injection by a
// conservative-parallel runner (internal/shard), whose packet was emitted
// by the source engine at from — carrying that stamp makes the merged
// dispatch order byte-identical to a single engine that scheduled the
// arrival during its own dispatch at from.
//
// A line is a FIFO: pushes must arrive in non-decreasing (at, from)
// order, or PushLine panics, as it does on from > at (an arrival cannot
// precede its emission). Each entry carries its own handler, so links
// with different receivers share one line.
func (e *Engine) PushLine(l *Line, at, from Time, h Handler, arg any) {
	if from > at {
		panic("sim: PushLine with scheduling stamp after the deadline")
	}
	if at < e.now {
		at = e.now
	}
	if l.n > 0 {
		tail := &l.ring[(l.head+l.n-1)&(len(l.ring)-1)]
		if at < tail.at || (at == tail.at && from < tail.schedAt) {
			panic("sim: PushLine out of (at, from) order")
		}
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	seq := e.seq
	e.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineEntry{at: at, schedAt: from, seq: seq, h: h, arg: arg}
	l.n++
	if l.n > 1 {
		e.lineBacklog++
		return
	}
	l.ev.kind = kindLine
	if l.ev.arg == nil {
		l.ev.arg = l
	}
	l.ev.at = at
	l.ev.schedAt = from
	l.ev.seq = seq
	e.heapPush(&l.ev)
}

// grow doubles the ring (minimum 8 slots), unwrapping the queued entries
// to the front of the new buffer.
func (l *Line) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]lineEntry, size)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// popLine removes the head entry of l, whose event is the heap root about
// to dispatch, and returns the head's handler and payload. The next entry
// takes over the root in place — its key only grows, so one sift-down
// replaces a pop and a push.
func (e *Engine) popLine(l *Line) (Handler, any) {
	head := &l.ring[l.head]
	h, arg := head.h, head.arg
	head.h, head.arg = nil, nil // drop the references from the ring
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n == 0 {
		e.heapPopMin()
		return h, arg
	}
	e.lineBacklog--
	next := &l.ring[l.head]
	l.ev.at = next.at
	l.ev.schedAt = next.schedAt
	l.ev.seq = next.seq
	e.siftDown(0, &l.ev)
	return h, arg
}

// shift moves every entry of l by d (FastForward) and hands each
// non-nil payload to shiftArg. The caller shifts l.ev itself.
func (l *Line) shift(d Time, shiftArg func(arg any)) {
	for i := 0; i < l.n; i++ {
		ent := &l.ring[(l.head+i)&(len(l.ring)-1)]
		ent.at += d
		ent.schedAt += d
		if shiftArg != nil && ent.arg != nil {
			shiftArg(ent.arg)
		}
	}
}
