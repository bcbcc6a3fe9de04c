package main

import (
	"fmt"
	"math"

	"cebinae/experiments"
	"cebinae/internal/cmsketch"
	"cebinae/internal/core"
	"cebinae/internal/fluid"
	"cebinae/internal/hhcache"
	"cebinae/internal/metrics"
	"cebinae/internal/netem"
	"cebinae/internal/packet"
	"cebinae/internal/qdisc"
	"cebinae/internal/replay"
	"cebinae/internal/sim"
	"cebinae/internal/tcp"
	"cebinae/internal/trace"
)

// The rigs rebuild the simulations experiments.Run and
// experiments.RunBackbone construct, single-shard, from the layers'
// public constructors, so the traced run can put decorators between the
// layers. With a nil tracer a rig is the plain simulation; the
// set-up time is measured on that build. The identity checks in main.go
// and the tests hold each rig to the entry point it mirrors.

// dumbbellRig is experiments.Run's dumbbell, fast-forward wiring
// included.
type dumbbellRig struct {
	s      experiments.Scenario
	eng    *sim.Engine
	d      *netem.Dumbbell
	cq     *core.Qdisc
	flat   []experiments.FlowGroup
	conns  []*tcp.Conn
	recvs  []*tcp.Receiver
	meters []*metrics.FlowMeter
	ffc    *fluid.Controller
}

func buildDumbbell(s experiments.Scenario, tr *tracer) (*dumbbellRig, error) {
	switch s.Qdisc {
	case experiments.FIFO, experiments.FQ, experiments.Cebinae:
	default:
		return nil, fmt.Errorf("dumbbell rig: unsupported bottleneck discipline %q", s.Qdisc)
	}
	if s.Shards > 1 || s.SampleInterval != 0 || s.Params != nil {
		return nil, fmt.Errorf("dumbbell rig: %s uses options the rig does not mirror", s.Name)
	}
	if s.WarmupFraction == 0 {
		s.WarmupFraction = 0.2
	}
	if s.MinRTO == 0 {
		s.MinRTO = experiments.Seconds(1)
	}
	r := &dumbbellRig{s: s, eng: sim.NewEngine()}
	var maxRTT sim.Time
	for _, g := range s.Groups {
		for i := 0; i < g.Count; i++ {
			r.flat = append(r.flat, experiments.FlowGroup{CC: g.CC, Count: 1, RTT: g.RTT, StartAt: g.StartAt})
		}
		if g.RTT > maxRTT {
			maxRTT = g.RTT
		}
	}
	rtts := make([]sim.Time, len(r.flat))
	for i, f := range r.flat {
		rtts[i] = f.RTT
	}
	w := netem.NewNetwork(r.eng)
	r.d = netem.BuildDumbbellOn(w, netem.DumbbellConfig{
		FlowCount:       len(r.flat),
		BottleneckBps:   s.BottleneckBps,
		BottleneckDelay: sim.Duration(100e3),
		RTTs:            rtts,
		AccessBps:       s.AccessBps,
		BottleneckQdisc: func(dev *netem.Device) netem.Qdisc {
			switch s.Qdisc {
			case experiments.FQ:
				return qdisc.NewFQCoDel(r.eng, s.BufferBytes, 0, qdisc.DefaultCoDelParams())
			case experiments.Cebinae:
				r.cq = core.New(r.eng, s.BottleneckBps, s.BufferBytes, core.DefaultParams(s.BottleneckBps, s.BufferBytes, maxRTT))
				r.cq.OnDrain = dev.Kick
				return r.cq
			}
			return qdisc.NewFIFO(s.BufferBytes)
		},
		DefaultQdisc: func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) },
	})
	if tr != nil {
		tr.wrapDevices(w.Nodes())
	}
	keys := make([]packet.FlowKey, len(r.flat))
	for i, f := range r.flat {
		cc, ok := tcp.NewCC(f.CC)
		if !ok {
			return nil, fmt.Errorf("dumbbell rig: unknown CC %q", f.CC)
		}
		snd, rcv := r.d.Senders[i], r.d.Receivers[i]
		key := packet.FlowKey{Src: snd.ID, Dst: rcv.ID, SrcPort: uint16(1000 + i), DstPort: uint16(5000 + i), Proto: packet.ProtoTCP}
		keys[i] = key
		conn := tcp.NewConn(r.eng, snd, tcp.Config{Key: key, CC: cc, StartAt: f.StartAt, Seed: s.Seed + uint64(i), MinRTO: s.MinRTO})
		recv := tcp.NewReceiver(r.eng, rcv, tcp.ReceiverConfig{Key: key})
		m := &metrics.FlowMeter{}
		recv.GoodputAt = m.Record
		if tr != nil {
			snd.Register(key.Reverse(), tr.wrap(conn, spanTCPAck))
			rcv.Register(key, tr.wrap(recv, spanTCPData))
		}
		r.conns = append(r.conns, conn)
		r.recvs = append(r.recvs, recv)
		r.meters = append(r.meters, m)
	}
	if s.FastForward {
		r.startFluid(keys)
	}
	return r, nil
}

// startFluid mirrors experiments' fast-forward wiring for a single-shard
// dumbbell: every device watched (the shared bottleneck as contested),
// per-flow meters pinned by their access links, the Cebinae port's
// closed-form feed, sender loss counters as discontinuities, and pinned
// no-ops at the measurement epochs.
func (r *dumbbellRig) startFluid(keys []packet.FlowKey) {
	s := r.s
	c := fluid.New(r.eng, fluid.Config{Resample: experiments.Seconds(1)})
	for _, n := range r.d.Net.Nodes() {
		for _, dev := range n.Devices() {
			if dev == r.d.Bottleneck && len(r.flat) > 1 {
				c.WatchDeviceContested(dev)
			} else {
				c.WatchDevice(dev)
			}
		}
	}
	pinFloor := 0.0
	if len(r.flat) > 1 {
		pinFloor = math.Inf(1)
		if s.AccessBps > 0 {
			pinFloor = 0.9 * s.AccessBps / 8 * float64(packet.MSS) / float64(packet.MSS+packet.HeaderBytes)
		}
	}
	for i, f := range r.flat {
		m := r.meters[i]
		if pinFloor > 0 {
			c.WatchFlowPinned(keys[i], f.StartAt, m.Total, m.Record, pinFloor)
		} else {
			c.WatchFlow(keys[i], f.StartAt, m.Total, m.Record)
		}
	}
	if r.cq != nil {
		c.WatchCebinae(r.cq, float64(packet.MSS+packet.HeaderBytes)/float64(packet.MSS))
	}
	for _, cn := range r.conns {
		st := &cn.Stats
		c.WatchCounter(func() uint64 { return st.Retransmits + st.Timeouts + st.ECEReductions })
		c.AddShifter(cn)
	}
	warmup := r.warmup()
	pin := func(t sim.Time) {
		if t > 0 && t <= s.Duration {
			r.eng.AtPinned(t, func() {})
		}
	}
	pin(warmup)
	for _, f := range r.flat {
		if f.StartAt > warmup {
			pin(f.StartAt + (s.Duration-f.StartAt)/5)
		}
	}
	c.Start()
	r.ffc = c
}

func (r *dumbbellRig) warmup() sim.Time {
	return sim.Time(float64(r.s.Duration) * r.s.WarmupFraction)
}

// run advances the simulation to the scenario's horizon.
func (r *dumbbellRig) run() { r.eng.Run(r.s.Duration) }

// result assembles the experiments.Result the same run would have
// returned, so Report() bytes compare directly.
func (r *dumbbellRig) result() experiments.Result {
	s := r.s
	res := experiments.Result{Scenario: s, Events: r.eng.Processed}
	if r.ffc != nil {
		res.FF = r.ffc.Stats()
	}
	warmup := r.warmup()
	rates := make([]float64, len(r.flat))
	for i, f := range r.flat {
		from := warmup
		if f.StartAt > from {
			from = f.StartAt + (s.Duration-f.StartAt)/5
		}
		rate := r.meters[i].RateOver(from, s.Duration)
		rates[i] = rate
		res.Flows = append(res.Flows, experiments.FlowResult{Index: i, CC: f.CC, RTT: f.RTT, GoodputBps: rate * 8})
		res.GoodputBps += rate * 8
	}
	res.JFI = metrics.JFI(rates)
	res.ThroughputBps = float64(r.d.Bottleneck.Stats.TxBytes) * 8 / s.Duration.Seconds()
	if r.cq != nil {
		res.CebStats = r.cq.Stats
	}
	return res
}

// backboneRig is experiments.RunBackbone's chain, src — sw1 ═ core ═
// sw2 — dst, with its scoring tap (count-min sketch, heavy-hitter cache,
// exact per-flow truth) and control-plane poller, so the rig does the
// same work and dispatches the same events as the entry point.
type backboneRig struct {
	cfg      experiments.BackboneConfig
	eng      *sim.Engine
	net      *netem.Network
	coreFwd  *netem.Device
	cq       *core.Qdisc
	truth    map[packet.FlowKey]int64
	poller   *backbonePoller
	source   *replay.Source
	sink     *replay.Sink
	traceGen int64 // host ns spent in trace.Flows
}

func buildBackbone(cfg experiments.BackboneConfig, tr *tracer) (*backboneRig, error) {
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 || (cfg.Qdisc != experiments.Cebinae && cfg.Qdisc != experiments.FIFO) {
		return nil, fmt.Errorf("backbone rig: %s uses options the rig does not mirror", cfg.Name)
	}
	t0 := clock()
	schedule := trace.Flows(cfg.Trace)
	r := &backboneRig{cfg: cfg, eng: sim.NewEngine(), traceGen: clock() - t0}
	r.net = netem.NewNetwork(r.eng)
	w := r.net
	src, sw1, sw2, dst := w.NewNode("src"), w.NewNode("sw1"), w.NewNode("sw2"), w.NewNode("dst")
	edge := func() netem.Qdisc { return qdisc.NewFIFO(64 << 20) }
	access := netem.LinkConfig{RateBps: cfg.AccessBps, Delay: sim.Duration(200e3), QdiscFactory: edge}
	srcFwd, srcRev := w.Connect(src, sw1, access)
	coreFwd, coreRev := w.Connect(sw1, sw2, netem.LinkConfig{RateBps: cfg.CoreBps, Delay: cfg.CoreDelay, QdiscFactory: edge})
	dstFwd, dstRev := w.Connect(sw2, dst, access)
	if cfg.Qdisc == experiments.Cebinae {
		rtt := 2 * (cfg.CoreDelay + 2*sim.Duration(200e3))
		r.cq = core.New(r.eng, cfg.CoreBps, cfg.BufferBytes, core.DefaultParams(cfg.CoreBps, cfg.BufferBytes, rtt))
		r.cq.OnDrain = coreFwd.Kick
		coreFwd.SetQdisc(r.cq)
	} else {
		coreFwd.SetQdisc(qdisc.NewFIFO(cfg.BufferBytes))
	}
	r.coreFwd = coreFwd
	src.AddRoute(dst.ID, srcFwd)
	sw1.AddRoute(dst.ID, coreFwd)
	sw2.AddRoute(dst.ID, dstFwd)
	dst.AddRoute(src.ID, dstRev)
	sw2.AddRoute(src.ID, coreRev)
	sw1.AddRoute(src.ID, srcRev)
	if tr != nil {
		tr.wrapDevices(w.Nodes())
	}

	sketch := cmsketch.New(cfg.SketchRows, cfg.SketchCols)
	cache := hhcache.New(cfg.CacheStages, cfg.CacheSlots)
	r.truth = make(map[packet.FlowKey]int64, cfg.Flows)
	coreFwd.OnTransmit = func(p *packet.Packet) {
		if p.PayloadSize <= 0 {
			return
		}
		sz := int64(p.Size)
		sketch.Add(p.Flow, sz)
		cache.Observe(p.Flow, sz)
		r.truth[p.Flow] += sz
	}
	r.poller = &backbonePoller{eng: r.eng, cache: cache, interval: cfg.Duration / 4, held: make(map[packet.FlowKey]bool)}
	r.eng.ArmTimer(&r.poller.timer, r.poller.interval, r.poller, nil)

	r.source = replay.NewSource(src, schedule, replay.Config{
		To:          dst.ID,
		PacketBytes: cfg.Trace.MeanPacketBytes,
		ClosedLoop:  cfg.ClosedLoop,
		ECN:         cfg.ClosedLoop,
		RTTSpread:   cfg.RTTSpread,
	})
	r.sink = replay.NewSink(dst, replay.SinkConfig{ClosedLoop: cfg.ClosedLoop})
	if tr != nil {
		if cfg.ClosedLoop {
			src.RegisterDefault(tr.wrap(r.source, spanReplayFeedback))
		}
		dst.RegisterDefault(tr.wrap(r.sink, spanReplaySink))
	}
	return r, nil
}

// backbonePoller is the control plane's poll-and-reset loop over the
// scoring cache, on the entry point's cadence.
type backbonePoller struct {
	timer    sim.Timer
	eng      *sim.Engine
	cache    *hhcache.Cache
	interval sim.Time
	held     map[packet.FlowKey]bool
}

func (b *backbonePoller) OnEvent(any) {
	for _, e := range b.cache.Poll() {
		b.held[e.Flow] = true
	}
	b.eng.ArmTimer(&b.timer, b.interval, b, nil)
}

func (r *backboneRig) run() { r.eng.Run(r.cfg.Duration) }

// backboneCounters is the part of a backbone outcome a rig must
// reproduce exactly: the engine, source, sink, core port and
// population counters. The cardinality scores are left to the entry
// point's own report digest.
type backboneCounters struct {
	Events                               uint64
	FlowsSeen                            int
	Started, Finished                    uint64
	PeakActive                           int
	SentPackets, Feedbacks, RateCuts     uint64
	CoreTxPackets, CoreTxBytes, CoreDrop uint64
	SinkPackets, LostBytes, CEMarks      uint64
	Ceb                                  core.Stats
}

func (r *backboneRig) counters() backboneCounters {
	c := backboneCounters{
		Events:        r.eng.Processed,
		FlowsSeen:     len(r.truth),
		Started:       r.source.Stats.Started,
		Finished:      r.source.Stats.Finished,
		PeakActive:    r.source.Stats.PeakActive,
		SentPackets:   r.source.Stats.SentPackets,
		Feedbacks:     r.source.Stats.Feedbacks,
		RateCuts:      r.source.Stats.RateCuts,
		CoreTxPackets: r.coreFwd.Stats.TxPackets,
		CoreTxBytes:   r.coreFwd.Stats.TxBytes,
		CoreDrop:      r.coreFwd.Stats.DropPackets,
		SinkPackets:   r.sink.Stats.Packets,
		LostBytes:     r.sink.Stats.LostBytes,
		CEMarks:       r.sink.Stats.CEMarks,
	}
	if r.cq != nil {
		c.Ceb = r.cq.Stats
		c.CoreDrop = c.Ceb.BufferDrops + c.Ceb.LBFDrops
	}
	return c
}

func countersOf(res experiments.BackboneResult) backboneCounters {
	return backboneCounters{
		Events: res.Events, FlowsSeen: res.FlowsSeen,
		Started: res.Started, Finished: res.Finished, PeakActive: res.PeakActive,
		SentPackets: res.SentPackets, Feedbacks: res.Feedbacks, RateCuts: res.RateCuts,
		CoreTxPackets: res.CoreTxPackets, CoreTxBytes: res.CoreTxBytes, CoreDrop: res.CoreDropPkts,
		SinkPackets: res.SinkPackets, LostBytes: res.LostBytes, CEMarks: res.CEMarks,
		Ceb: res.CebStats,
	}
}
