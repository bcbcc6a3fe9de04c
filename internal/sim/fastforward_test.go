package sim

import (
	"fmt"
	"testing"
)

// TestPinnedPlacementInvisible: with fast-forward never invoked, arming a
// timer pinned instead of unpinned must not change the dispatch order —
// pinned timers skip the wheel, but wheel placement is invisible to the
// (at, schedAt, seq) event stream.
func TestPinnedPlacementInvisible(t *testing.T) {
	run := func(pin bool) []string {
		eng := NewEngine()
		var log []string
		r := &timerRecorder{log: &log, eng: eng}
		// A mix of deadlines spanning heap-imminent and wheel-parked
		// ranges, including exact ties.
		deadlines := []Time{5, 1 << 20, 5, 1 << 20, 300, 1 << 15, 1 << 20}
		timers := make([]Timer, len(deadlines))
		for i, at := range deadlines {
			if pin && i%2 == 0 {
				eng.ArmPinnedTimerAt(&timers[i], at, r, i)
			} else {
				eng.ArmTimerAt(&timers[i], at, r, i)
			}
		}
		eng.RunAll()
		return log
	}
	plain, pinned := run(false), run(true)
	if fmt.Sprint(plain) != fmt.Sprint(pinned) {
		t.Fatalf("pinned placement changed dispatch order:\nplain  %v\npinned %v", plain, pinned)
	}
}

func TestNextPinnedTime(t *testing.T) {
	eng := NewEngine()
	r := &timerRecorder{log: new([]string), eng: eng}
	if got := eng.NextPinnedTime(); got != MaxTime {
		t.Fatalf("empty engine NextPinnedTime = %v", got)
	}
	var a, b, c Timer
	eng.ArmTimerAt(&a, 50, r, 0) // unpinned: invisible
	eng.ArmPinnedTimerAt(&b, 200, r, 1)
	eng.ArmPinnedTimerAt(&c, 120, r, 2)
	if got := eng.NextPinnedTime(); got != 120 {
		t.Fatalf("NextPinnedTime = %v, want 120", got)
	}
	// Re-arming a pinned timer unpinned clears the mark.
	eng.ArmTimerAt(&c, 120, r, 2)
	if got := eng.NextPinnedTime(); got != 200 {
		t.Fatalf("after unpinning: NextPinnedTime = %v, want 200", got)
	}
	if eng.StopTimer(&b); eng.NextPinnedTime() != MaxTime {
		t.Fatalf("after stop: NextPinnedTime = %v, want MaxTime", eng.NextPinnedTime())
	}
}

// TestFastForwardShiftsEverything: heap events, wheel timers, and
// overflow timers all move by the skip delta; the pinned bound fires at
// its absolute deadline.
func TestFastForwardShiftsEverything(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}

	const skip = Time(1e9)
	var heapT, wheelT, overflowT, pinnedT Timer
	eng.ArmTimerAt(&heapT, 100, r, 0)            // imminent: heap-resident
	eng.ArmTimerAt(&wheelT, 1<<21, r, 1)         // wheel-parked
	eng.ArmTimerAt(&overflowT, Time(1)<<45, r, 2) // beyond the wheel window
	eng.ArmPinnedTimerAt(&pinnedT, skip, r, 3)   // exactly at the skip target: legal
	eng.At(7, func() { log = append(log, fmt.Sprintf("closure@%d", eng.Now())) })

	eng.FastForward(skip, nil)
	if eng.Now() != skip {
		t.Fatalf("clock = %v, want %v", eng.Now(), skip)
	}
	eng.RunAll()
	want := fmt.Sprintf("[3@%d closure@%d 0@%d 1@%d 2@%d]",
		skip, skip+7, skip+100, skip+Time(1<<21), skip+Time(1)<<45)
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v\nwant  %v", log, want)
	}
}

// TestFastForwardPreservesRelativeOrder: a deterministic pseudo-random
// mix of timers and events fired with and without a mid-stream skip must
// produce the same sequence of (id, time-since-start-minus-skips).
func TestFastForwardPreservesRelativeOrder(t *testing.T) {
	build := func(eng *Engine, log *[]string) {
		r := &timerRecorder{log: log, eng: eng}
		rng := NewRand(42)
		timers := make([]Timer, 64)
		for i := range timers {
			at := Time(rng.Intn(1 << 24))
			eng.ArmTimerAt(&timers[i], at, r, i)
		}
		eng.RunAll()
	}
	var plain []string
	build(NewEngine(), &plain)

	var skipped []string
	eng := NewEngine()
	r := &timerRecorder{log: &skipped, eng: eng}
	rng := NewRand(42)
	timers := make([]Timer, 64)
	for i := range timers {
		at := Time(rng.Intn(1 << 24))
		eng.ArmTimerAt(&timers[i], at, r, i)
	}
	const skip = Time(5e8)
	eng.FastForward(skip, nil)
	eng.RunAll()
	// Un-shift the recorded fire times for comparison.
	for i, s := range skipped {
		var id int
		var at Time
		fmt.Sscanf(s, "%d@%d", &id, &at)
		skipped[i] = fmt.Sprintf("%d@%d", id, at-skip)
	}
	if fmt.Sprint(plain) != fmt.Sprint(skipped) {
		t.Fatalf("skip perturbed relative order:\nplain   %v\nskipped %v", plain, skipped)
	}
}

func TestFastForwardPanicsAcrossPinned(t *testing.T) {
	eng := NewEngine()
	r := &timerRecorder{log: new([]string), eng: eng}
	var tm Timer
	eng.ArmPinnedTimerAt(&tm, 500, r, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("FastForward across a pinned event must panic")
		}
	}()
	eng.FastForward(501, nil)
}

// TestFastForwardShiftArg: payload timestamps are handed to the shift
// callback exactly once per shifted event, including wheel-parked timers
// and pooled typed events — but not for pinned events.
func TestFastForwardShiftArg(t *testing.T) {
	eng := NewEngine()
	r := &timerRecorder{log: new([]string), eng: eng}
	type stamp struct{ at Time }
	a, b, c := &stamp{10}, &stamp{20}, &stamp{30}
	var near, far, pin Timer
	eng.ArmTimerAt(&near, 100, r, a)    // heap
	eng.ArmTimerAt(&far, 1<<22, r, b)   // wheel
	eng.ArmPinnedTimerAt(&pin, 1e6, r, c) // pinned: not shifted
	eng.AtCall(50, r, a)                // pooled event sharing payload a

	const skip = Time(1e6)
	shifts := map[*stamp]int{}
	eng.FastForward(skip, func(arg any) {
		s := arg.(*stamp)
		s.at += skip
		shifts[s]++
	})
	if shifts[a] != 2 || shifts[b] != 1 || shifts[c] != 0 {
		t.Fatalf("shift counts: a=%d b=%d c=%d, want 2/1/0", shifts[a], shifts[b], shifts[c])
	}
	if a.at != 10+2*skip || b.at != 20+skip || c.at != 30 {
		t.Fatalf("stamps: a=%d b=%d c=%d", a.at, b.at, c.at)
	}
}

// TestFastForwardArmedTimerReentry: the armed-but-skipped timer edge
// case. A wheel-parked timer carried across a skip must remain fully
// operational: stoppable in O(1), re-armable, and it fires at the shifted
// deadline if left alone.
func TestFastForwardArmedTimerReentry(t *testing.T) {
	eng := NewEngine()
	var log []string
	r := &timerRecorder{log: &log, eng: eng}

	var rto, stopped Timer
	eng.ArmTimerAt(&rto, 1<<20, r, 0)
	eng.ArmTimerAt(&stopped, 1<<21, r, 1)
	eng.FastForward(3e5, nil)

	if !rto.Pending() || !stopped.Pending() {
		t.Fatal("armed timers must stay pending across a skip")
	}
	if !eng.StopTimer(&stopped) {
		t.Fatal("StopTimer after a skip must still unlink")
	}
	// Re-arm the survivor to a nearer deadline, as an RTO handler would.
	eng.ArmTimer(&rto, 10, r, 2)
	eng.RunAll()
	want := fmt.Sprintf("[2@%d]", Time(3e5)+10)
	if fmt.Sprint(log) != want {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestFastForwardZeroAndHorizon(t *testing.T) {
	eng := NewEngine()
	eng.FastForward(0, nil) // no-op
	if eng.Now() != 0 {
		t.Fatalf("zero skip moved the clock to %v", eng.Now())
	}
	done := false
	eng.At(10, func() {
		if eng.Horizon() != 1000 {
			t.Errorf("Horizon inside Run = %v, want 1000", eng.Horizon())
		}
		done = true
	})
	eng.Run(1000)
	if !done {
		t.Fatal("event did not fire")
	}
}

// lineStamp is a line payload carrying an absolute timestamp, as a
// packet does; stampRecorder logs each firing and whether the clock
// matches the (shifted) stamp.
type lineStamp struct {
	id int
	at Time
}

type stampRecorder struct {
	log *[]string
	eng *Engine
}

func (r stampRecorder) OnEvent(arg any) {
	s := arg.(*lineStamp)
	*r.log = append(*r.log, fmt.Sprintf("%d@%d", s.id, r.eng.Now()))
	if s.at != r.eng.Now() {
		*r.log = append(*r.log, fmt.Sprintf("stamp %d says %d", s.id, s.at))
	}
}

// TestFastForwardLoadedLine: a skip over a delay line holding several
// packets in flight moves every entry — not just the heap-resident head —
// by the delta, hands each entry's payload to shiftArg exactly once,
// leaves Pending unchanged, and still refuses to hop a pinned deadline.
func TestFastForwardLoadedLine(t *testing.T) {
	build := func() (*Engine, *[]string, []*lineStamp) {
		eng := NewEngine()
		log := new([]string)
		r := stampRecorder{log: log, eng: eng}
		var l Line
		var stamps []*lineStamp
		for i, at := range []Time{40, 40, 55, 90} { // a same-instant pair
			s := &lineStamp{id: i, at: at}
			stamps = append(stamps, s)
			eng.PushLine(&l, at, Time(i), r, s)
		}
		// A pooled event interleaving with the line's entries.
		eng.AtCall(50, r, &lineStamp{id: 9, at: 50})
		return eng, log, stamps
	}

	eng, log, stamps := build()
	const skip = Time(1e6)
	before := eng.Pending()
	if before != len(stamps)+1 {
		t.Fatalf("Pending = %d before the skip, want every line entry counted (%d)", before, len(stamps)+1)
	}
	shifts := map[*lineStamp]int{}
	eng.FastForward(skip, func(arg any) {
		s := arg.(*lineStamp)
		s.at += skip
		shifts[s]++
	})
	if got := eng.Pending(); got != before {
		t.Fatalf("Pending across the skip = %d, want %d", got, before)
	}
	for _, s := range stamps {
		if shifts[s] != 1 {
			t.Fatalf("entry %d: shiftArg ran %d times, want once", s.id, shifts[s])
		}
	}
	eng.RunAll()
	want := fmt.Sprintf("[0@%d 1@%d 9@%d 2@%d 3@%d]", skip+40, skip+40, skip+50, skip+55, skip+90)
	if fmt.Sprint(*log) != want {
		t.Fatalf("log = %v\nwant  %v", *log, want)
	}

	eng, _, _ = build()
	var pin Timer
	eng.ArmPinnedTimerAt(&pin, 500, &timerRecorder{log: new([]string), eng: eng}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("FastForward across a pinned event must panic with a loaded line")
		}
	}()
	eng.FastForward(501, nil)
}
