package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refScheduler is a reference implementation of the engine's ordering
// contract — a container/heap binary min-heap over (time, scheduling
// stamp, seq), the structure the engine used before the inlined 4-ary
// heap, with one event per delivery — driven through the same
// schedule/cancel/dispatch scripts as the real engine to prove the
// replacement (and the delay lines that keep only their head on the heap)
// preserves dispatch order, including same-instant FIFO tie-breaking.
type refScheduler struct {
	now   Time
	seq   uint64
	queue refQueue
}

type refEvent struct {
	at      Time
	schedAt Time
	seq     uint64
	index   int
	id      int
	fn      func() // run on dispatch by run(); nil for drain()'s scripts
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].schedAt != q[j].schedAt {
		return q[i].schedAt < q[j].schedAt
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (r *refScheduler) schedule(d Time, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	return r.scheduleAt(r.now+d, r.now, id, nil)
}

// scheduleAt queues one event at (at, from, next seq) — the key a delay
// line entry pushed with PushLine(at, from) carries.
func (r *refScheduler) scheduleAt(at, from Time, id int, fn func()) *refEvent {
	ev := &refEvent{at: at, schedAt: from, seq: r.seq, id: id, fn: fn}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refScheduler) cancel(ev *refEvent) {
	if ev == nil || ev.index == -1 {
		return
	}
	heap.Remove(&r.queue, ev.index)
	ev.index = -1
}

// run dispatches events in order, calling each one's fn, until the queue
// drains.
func (r *refScheduler) run() {
	for r.queue.Len() > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		ev.index = -1
		r.now = ev.at
		ev.fn()
	}
}

func (r *refScheduler) drain() []int {
	var order []int
	for r.queue.Len() > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		ev.index = -1
		r.now = ev.at
		order = append(order, ev.id)
	}
	return order
}

// op scripts one generator step. Encodings (from fuzz bytes or the PRNG):
// schedule with a small delay (dense ties on purpose), or cancel one of the
// still-pending events.
type op struct {
	cancel bool
	delay  Time   // schedule: delay in [0, 16)
	victim uint32 // cancel: index into pending handles
}

// runScript drives the engine and the reference through the same script and
// compares full dispatch order.
func runScript(t *testing.T, ops []op) {
	t.Helper()
	eng := NewEngine()
	ref := &refScheduler{}

	var got []int
	var engEvents []*Event
	var refEvents []*refEvent
	for i, o := range ops {
		if o.cancel {
			if len(engEvents) == 0 {
				continue
			}
			v := int(o.victim) % len(engEvents)
			eng.Cancel(engEvents[v])
			ref.cancel(refEvents[v])
			continue
		}
		id := i
		engEvents = append(engEvents, eng.Schedule(o.delay, func() { got = append(got, id) }))
		refEvents = append(refEvents, ref.schedule(o.delay, id))
	}
	eng.RunAll()
	want := ref.drain()

	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, reference dispatched %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: engine fired %d, reference %d\ngot  %v\nwant %v",
				i, got[i], want[i], got, want)
		}
	}
}

// TestHeapMatchesReference drives many random schedule/cancel scripts with
// heavy same-instant collision pressure through both heaps.
func TestHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCEB14AE))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(400)
		ops := make([]op, n)
		for i := range ops {
			if rng.Intn(4) == 0 {
				ops[i] = op{cancel: true, victim: rng.Uint32()}
			} else {
				ops[i] = op{delay: Time(rng.Intn(16))}
			}
		}
		runScript(t, ops)
	}
}

// TestHeapMatchesReferenceNested extends the property to events scheduled
// from inside callbacks (the engine's real usage pattern): every firing may
// schedule follow-ups, deterministically derived from its id.
func TestHeapMatchesReferenceNested(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng := NewEngine()
		ref := &refScheduler{}
		var got, want []int

		// Engine side: callbacks reschedule one or two children.
		next := 0
		var fire func(id int)
		spawn := func(id int, d Time) {
			eng.Schedule(d, func() { fire(id) })
		}
		fire = func(id int) {
			got = append(got, id)
			if id < 2000 {
				spawn(next+1000, Time(id%7))
				if id%3 == 0 {
					spawn(next+2000, Time(id%5))
				}
				next++
			}
		}
		for i := 0; i < 50; i++ {
			spawn(i, Time((int(seed)*i)%11))
		}
		eng.RunAll()

		// Reference side: identical logic over the reference heap.
		refNext := 0
		for i := 0; i < 50; i++ {
			ref.schedule(Time((int(seed)*i)%11), i)
		}
		for ref.queue.Len() > 0 {
			ev := heap.Pop(&ref.queue).(*refEvent)
			ev.index = -1
			ref.now = ev.at
			want = append(want, ev.id)
			if ev.id < 2000 {
				ref.schedule(Time(ev.id%7), refNext+1000)
				if ev.id%3 == 0 {
					ref.schedule(Time(ev.id%5), refNext+2000)
				}
				refNext++
			}
		}

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d (%d vs %d)", seed, i, got[i], want[i])
			}
		}
	}
}

// FuzzHeapDispatchOrder fuzzes raw op scripts through both heaps. Three
// bytes per op: kind, delay/victim low, victim high.
func FuzzHeapDispatchOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 5, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 0, 0, 3, 0, 1, 0, 1, 0, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		for i := 0; i+2 < len(data) && len(ops) < 2048; i += 3 {
			if data[i]%4 == 3 {
				ops = append(ops, op{cancel: true, victim: uint32(data[i+1]) | uint32(data[i+2])<<8})
			} else {
				ops = append(ops, op{delay: Time(data[i+1] % 16)})
			}
		}
		runScript(t, ops)
	})
}

// ---------------------------------------------------------------------------
// Line differential: one seeded script drives the engine — delay lines,
// pooled calls, timers — and the reference, where every line entry is its
// own heap event. The script pushes from several links, each with a fixed
// delay (zero included, so same-nanosecond collisions with the pushing
// event are common) and a handler of its own. Links 1.. push local
// arrivals onto the engine's shared line for their delay, so links of
// equal delay interleave their entries, and handlers, on one FIFO; link 0
// owns its line and carries past emission stamps the way a shard's
// cut-link injection does. Both sides consume the rng in dispatch order,
// so any divergence desynchronises the rest of the script too.
// ---------------------------------------------------------------------------

const lineDiffLinks, lineDiffTimers = 6, 4

type lineDiff struct {
	rng    *Rand
	steps  int
	log    []string
	nextID int
	delays []Time // per-link propagation delay
	last   []Time // per-link latest emission stamp

	// Exactly one side is live: the engine or the reference.
	eng       *Engine
	lines     []*Line // per link: its own line (link 0) or the shared one
	timers    []Timer
	ref       *refScheduler
	refTimers []*refEvent
}

// lineFire logs a dispatch together with the link whose handler ran, so
// an entry dispatched through another entry's handler shows up in the
// log.
type lineFire struct {
	d    *lineDiff
	link int
}

func (f lineFire) OnEvent(arg any) { f.d.fired(arg.(int), f.link) }

func (d *lineDiff) now() Time {
	if d.eng != nil {
		return d.eng.Now()
	}
	return d.ref.now
}

func (d *lineDiff) fired(id, link int) {
	d.log = append(d.log, fmt.Sprintf("%d@%d/%d", id, d.now(), link))
}

func (d *lineDiff) OnEvent(any) { d.step() }

// step applies one random op, logs the pending count, and schedules the
// next step.
func (d *lineDiff) step() {
	if d.steps == 0 {
		return
	}
	d.steps--
	now := d.now()
	d.nextID++
	id := d.nextID
	fire := lineFire{d, -1}
	switch op := d.rng.Intn(8); {
	case op < 4: // push onto a link's line
		li := d.rng.Intn(len(d.delays))
		delay := d.delays[li]
		from := now
		if li == 0 {
			from -= Time(d.rng.Intn(int(delay) + 1))
		}
		if from < d.last[li] {
			from = d.last[li]
		}
		d.last[li] = from
		if d.eng != nil {
			d.eng.PushLine(d.lines[li], from+delay, from, lineFire{d, li}, id)
		} else {
			d.ref.scheduleAt(from+delay, from, id, func() { d.fired(id, li) })
		}
	case op == 4: // pooled one-shot
		delay := Time(d.rng.Intn(4))
		if d.eng != nil {
			d.eng.ScheduleCall(delay, fire, id)
		} else {
			d.ref.scheduleAt(now+delay, now, id, func() { d.fired(id, -1) })
		}
	case op == 5: // arm / re-arm a timer, near or wheel-parked
		slot := d.rng.Intn(lineDiffTimers)
		delay := Time(d.rng.Intn(1 << uint(d.rng.Intn(20))))
		if d.eng != nil {
			d.eng.ArmTimer(&d.timers[slot], delay, fire, id)
		} else {
			d.ref.cancel(d.refTimers[slot])
			d.refTimers[slot] = d.ref.scheduleAt(now+delay, now, id, func() { d.fired(id, -1) })
		}
	case op == 6: // cancel a timer
		slot := d.rng.Intn(lineDiffTimers)
		if d.eng != nil {
			d.eng.StopTimer(&d.timers[slot])
		} else {
			d.ref.cancel(d.refTimers[slot])
		}
	default: // let time pass
	}
	gap := Time(d.rng.Intn(3))
	if d.eng != nil {
		d.log = append(d.log, fmt.Sprintf("p%d", d.eng.Pending()))
		d.eng.ScheduleCall(gap, d, nil)
	} else {
		d.log = append(d.log, fmt.Sprintf("p%d", d.ref.queue.Len()))
		d.ref.scheduleAt(now+gap, now, -1, d.step)
	}
}

// runLineDiff runs one script on the engine (ref false) or the reference.
// Delays are drawn from four values, so the five local links always put
// at least two links on one shared line.
func runLineDiff(seed uint64, ref bool, steps int) []string {
	d := &lineDiff{rng: NewRand(seed), steps: steps}
	for i := 0; i < lineDiffLinks; i++ {
		d.delays = append(d.delays, Time(d.rng.Intn(4)))
	}
	d.last = make([]Time, lineDiffLinks)
	if ref {
		d.ref = &refScheduler{}
		d.refTimers = make([]*refEvent, lineDiffTimers)
		d.ref.scheduleAt(0, 0, -1, d.step)
		d.ref.run()
	} else {
		d.eng = NewEngine()
		d.lines = []*Line{{}}
		for _, delay := range d.delays[1:] {
			d.lines = append(d.lines, d.eng.DelayLine(delay))
		}
		d.timers = make([]Timer, lineDiffTimers)
		d.eng.ScheduleCall(0, d, nil)
		d.eng.RunAll()
	}
	return d.log
}

func checkLineDiff(t *testing.T, seed uint64, steps int) {
	t.Helper()
	got, want := runLineDiff(seed, false, steps), runLineDiff(seed, true, steps)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("seed %d steps %d: lines diverge from one event per entry\nlines: %v\nref:   %v", seed, steps, got, want)
	}
}

func TestLineHeapDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkLineDiff(t, seed, 400)
	}
}

func FuzzLineHeapEquivalence(f *testing.F) {
	f.Add(uint64(7), uint16(300))
	f.Add(uint64(42), uint16(800))
	f.Fuzz(func(t *testing.T, seed uint64, steps16 uint16) {
		checkLineDiff(t, seed, int(steps16)%1000+10)
	})
}

// TestPushLineOrderPanics: a line is a FIFO — an entry keyed before the
// tail, by time or by emission stamp at an equal time, is a caller bug.
func TestPushLineOrderPanics(t *testing.T) {
	n := 0
	h := surfHandler{&n}
	cases := []struct {
		name     string
		at, from Time
	}{
		{"earlier deadline", 9, 0},
		{"earlier stamp at equal deadline", 10, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := NewEngine()
			var l Line
			eng.PushLine(&l, 10, 5, h, nil)
			defer func() {
				if recover() == nil {
					t.Fatal("PushLine did not panic")
				}
			}()
			eng.PushLine(&l, c.at, c.from, h, nil)
		})
	}
	// Equal keys are in order: seq breaks the tie.
	eng := NewEngine()
	var l Line
	eng.PushLine(&l, 10, 5, h, nil)
	eng.PushLine(&l, 10, 5, h, nil)
	eng.RunAll()
	if n != 2 {
		t.Fatalf("dispatched %d of 2 equal-key entries", n)
	}
}

// TestPushLinePerEntryHandler: entries of one line dispatch through the
// handler each was pushed with — the head's handler never leaks onto the
// entries behind it — including when the line drains and refills.
func TestPushLinePerEntryHandler(t *testing.T) {
	var log []string
	eng := NewEngine()
	l := eng.DelayLine(7)
	if eng.DelayLine(7) != l || eng.DelayLine(3) == l {
		t.Fatal("DelayLine must return one line per distinct delay")
	}
	rec := func(name string) Handler {
		return handlerFunc(func(arg any) { log = append(log, fmt.Sprintf("%s:%v@%d", name, arg, eng.Now())) })
	}
	a, b, c := rec("a"), rec("b"), rec("c")
	eng.PushLine(l, 7, 0, a, 1)
	eng.PushLine(l, 7, 0, b, 2)
	eng.PushLine(l, 7, 0, a, 3)
	eng.AtCall(5, handlerFunc(func(any) { eng.PushLine(l, 12, 5, c, 4) }), nil)
	eng.RunAll()
	eng.PushLine(l, eng.Now()+7, eng.Now(), b, 5) // refill after the line drained
	eng.RunAll()
	want := "[a:1@7 b:2@7 a:3@7 c:4@12 b:5@19]"
	if fmt.Sprint(log) != want {
		t.Fatalf("dispatch log %v, want %s", log, want)
	}
}

type handlerFunc func(arg any)

func (f handlerFunc) OnEvent(arg any) { f(arg) }
