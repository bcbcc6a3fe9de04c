package sim

// Line is a caller-embedded delay line — the fifth scheduling surface (see
// the package comment). It exists for the propagation leg of a link: a
// FIFO of deliveries whose dispatch keys arrive in non-decreasing order,
// because a serial transmitter followed by a fixed delay hands every
// packet over in emission order. Each entry keeps the exact (at, schedAt,
// seq) key a pooled AtCall issued at push time would have had, but only
// the line's head sits on the engine's heap: the heap holds one event per
// non-empty line instead of one per entry, and the dispatch order is
// identical to one event per entry.
//
// The zero Line is ready to use. Entries live in a power-of-two ring that
// grows to the line's peak occupancy and is then reused, so a steady
// stream of pushes never allocates.
type Line struct {
	// ev is the heap residency of the head entry; ev.arg permanently
	// back-points to the Line and ev.handler is the line's handler.
	ev   Event
	ring []lineEntry
	head int // ring index of the head entry
	n    int // entries queued, head included
}

// lineEntry is one queued delivery and its dispatch key.
type lineEntry struct {
	at, schedAt Time
	seq         uint64
	arg         any
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
// A line is a FIFO with one handler: pushes must arrive in non-decreasing
// (at, from) order and name the handler the queued entries were pushed
// with. Violations panic, as does from > at (an arrival cannot precede
// its emission).
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
		if l.ev.handler != h {
			panic("sim: PushLine with a different handler on a non-empty line")
		}
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	seq := e.seq
	e.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineEntry{at: at, schedAt: from, seq: seq, arg: arg}
	l.n++
	if l.n > 1 {
		e.lineBacklog++
		return
	}
	l.ev.kind = kindLine
	l.ev.handler = h
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
// to dispatch, and returns the head's payload. The next entry takes over
// the root in place — its key only grows, so one sift-down replaces a pop
// and a push.
func (e *Engine) popLine(l *Line) any {
	head := &l.ring[l.head]
	arg := head.arg
	head.arg = nil // drop the payload reference from the ring
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n == 0 {
		e.heapPopMin()
		return arg
	}
	e.lineBacklog--
	next := &l.ring[l.head]
	l.ev.at = next.at
	l.ev.schedAt = next.schedAt
	l.ev.seq = next.seq
	e.siftDown(0, &l.ev)
	return arg
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
