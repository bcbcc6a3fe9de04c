package benchkit

import (
	"fmt"
	"testing"

	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/sim"
)

// FanInSenders are the NetemFanIn sizes: one sender, a rack, and a
// Fig.-8-scale crowd of equal-delay access links into one switch.
var FanInSenders = []int{1, 16, 256}

// fanInDelay and fanInGap put about 400 packets in flight on the access
// links at once (5 ms of 12 µs injections), spread evenly over the
// senders, while at most one or two transmitters are busy at any instant.
const (
	fanInDelay = sim.Time(5e6)
	fanInGap   = sim.Time(12e3)
)

// fanInRig is n senders, each on its own 1 Gbps, 5 ms access link, into
// one switch that consumes every packet. A pump injects one 1500 B packet
// every fanInGap, round-robin over the senders.
type fanInRig struct {
	eng     *sim.Engine
	senders []*netem.Node
	keys    []packet.FlowKey
	next    int // round-robin cursor
	left    int // packets still to inject
}

func newFanInRig(n int) *fanInRig {
	eng := sim.NewEngine()
	w := netem.NewNetwork(eng)
	sw := w.NewNode("sw")
	sw.RegisterDefault(nullEndpoint{})
	r := &fanInRig{eng: eng}
	for i := 0; i < n; i++ {
		s := w.NewNode(fmt.Sprintf("s%d", i))
		up, down := w.Connect(s, sw, netem.LinkConfig{RateBps: 1e9, Delay: fanInDelay})
		up.SetQdisc(qdisc.NewFIFO(1 << 20))
		down.SetQdisc(qdisc.NewFIFO(1 << 20))
		s.AddRoute(sw.ID, up)
		r.senders = append(r.senders, s)
		r.keys = append(r.keys, packet.FlowKey{Src: s.ID, Dst: sw.ID, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP})
	}
	return r
}

// OnEvent is the pump: inject one packet and come back after fanInGap.
func (r *fanInRig) OnEvent(any) {
	s := r.senders[r.next]
	p := s.AllocPacket()
	p.Flow = r.keys[r.next]
	p.Size = 1500
	p.PayloadSize = 1448
	s.Inject(p)
	if r.next++; r.next == len(r.senders) {
		r.next = 0
	}
	if r.left--; r.left > 0 {
		r.eng.ScheduleCall(fanInGap, r, nil)
	}
}

// run moves hops packets from the senders to the switch and drains the
// engine.
func (r *fanInRig) run(hops int) {
	r.left = hops
	r.eng.ScheduleCall(0, r, nil)
	r.eng.RunAll()
}

// NetemFanIn returns the fan-in benchmark for n equal-delay senders: one
// op is one hop (serialise, propagate, deliver), so ns/op is ns per hop.
// Every access link has the same delay, so all of them share the
// engine's one delay line and the heap stays a few entries deep at any
// n: ns/op should not grow with n. Steady state is allocation-free.
func NetemFanIn(n int) func(*testing.B) {
	return func(b *testing.B) {
		r := newFanInRig(n)
		r.run(2048) // warm the packet pool, the event free list and the line's ring
		b.ReportAllocs()
		b.ResetTimer()
		r.run(b.N)
		Sink = int(r.eng.Processed)
	}
}

// FanInSpecName names the NetemFanIn row for n senders.
func FanInSpecName(n int) string { return fmt.Sprintf("NetemFanIn/N=%d", n) }
