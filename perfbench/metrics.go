package main

import (
	"cebinae/internal/core"
	"cebinae/internal/netem"
	"cebinae/internal/sim"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the --trace 0 metrics: host time and memory a user of the
// simulator sees.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the --trace 1 metrics, named after the repository's
// modules. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.events_per_hop", unit: "ratio", better: "lower"},
	{name: "sim.self_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.self_share", unit: "ratio", better: "lower"},
	{name: "sim.pending_mean", unit: "count", better: "lower"},
	{name: "sim.pending_max", unit: "count", better: "lower"},
	{name: "netem.hops", unit: "count", better: "lower"},
	{name: "netem.drops", unit: "count", better: "lower"},
	{name: "netem.deq_hit_ratio", unit: "ratio", better: "higher"},
	{name: "qdisc.enq_calls", unit: "count", better: "lower"},
	{name: "qdisc.enq_ns", unit: "ns", better: "lower"},
	{name: "qdisc.deq_ns", unit: "ns", better: "lower"},
	{name: "qdisc.drop_ratio", unit: "ratio", better: "lower"},
	{name: "qdisc.self_share", unit: "ratio", better: "lower"},
	{name: "core.enq_calls", unit: "count", better: "lower"},
	{name: "core.enq_ns", unit: "ns", better: "lower"},
	{name: "core.deq_ns", unit: "ns", better: "lower"},
	{name: "core.lbf_drops", unit: "count", better: "lower"},
	{name: "core.buffer_drops", unit: "count", better: "lower"},
	{name: "core.delayed_ratio", unit: "ratio", better: "lower"},
	{name: "core.rotations", unit: "count", better: "lower"},
	{name: "core.recomputes", unit: "count", better: "lower"},
	{name: "core.saturated_frac", unit: "ratio", better: "lower"},
	{name: "core.self_share", unit: "ratio", better: "lower"},
	{name: "tcp.acks", unit: "count", better: "lower"},
	{name: "tcp.ack_ns", unit: "ns", better: "lower"},
	{name: "tcp.data_ns", unit: "ns", better: "lower"},
	{name: "tcp.retransmits", unit: "count", better: "lower"},
	{name: "tcp.timeouts", unit: "count", better: "lower"},
	{name: "tcp.goodput_ratio", unit: "ratio", better: "higher"},
	{name: "tcp.self_share", unit: "ratio", better: "lower"},
	{name: "replay.sink_ns", unit: "ns", better: "lower"},
	{name: "replay.feedback_ns", unit: "ns", better: "lower"},
	{name: "replay.sent_pkts", unit: "count", better: "lower"},
	{name: "replay.peak_active", unit: "count", better: "lower"},
	{name: "replay.rate_cuts", unit: "count", better: "lower"},
	{name: "replay.self_share", unit: "ratio", better: "lower"},
	{name: "trace.gen_s", unit: "s", better: "lower"},
	{name: "scenario.compile_s", unit: "s", better: "lower"},
	{name: "fluid.skipped_frac", unit: "ratio", better: "higher"},
	{name: "fluid.arms", unit: "count", better: "lower"},
	{name: "fluid.disarms", unit: "count", better: "lower"},
	{name: "fluid.events_x", unit: "ratio", better: "higher"},
	{name: "go.alloc_mb", unit: "MiB", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "host.wall_raw_s", unit: "s", better: "lower"},
	{name: "host.wall_scaled_s", unit: "s", better: "lower"},
	{name: "host.ref_s", unit: "s", better: "lower"},
	{name: "trace_overhead_x", unit: "ratio", better: "lower"},
	{name: "probe_pair_ns", unit: "ns", better: "lower"},
	{name: "err_pct", unit: "%", better: "lower"},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledgerMetrics fills the per-layer values of a traced run from the
// tracer's spans and the layers' public counters. runNs is the host time
// spent inside Engine.Run.
func ledgerMetrics(v map[string]float64, t *tracer, rs *rigSet, runNs int64) {
	var (
		events, hops, drops     uint64
		ceb                     core.Stats
		cebHorizon              sim.Time
		retrans, timeouts, sent uint64
		goodput                 int64
		ffHorizon, skipped      sim.Time
		arms, disarms           uint64
		engines                 []*sim.Engine
		sentPkts, cuts          uint64
		peakActive              int
	)
	countDevices := func(nodes []*netem.Node) {
		for _, n := range nodes {
			for _, dev := range n.Devices() {
				hops += dev.Stats.TxPackets
				drops += dev.Stats.DropPackets
			}
		}
	}
	for _, r := range rs.dumbbells {
		engines = append(engines, r.eng)
		countDevices(r.d.Net.Nodes())
		if r.cq != nil {
			addCore(&ceb, r.cq.Stats)
			cebHorizon += r.s.Duration
		}
		for _, c := range r.conns {
			retrans += c.Stats.Retransmits
			timeouts += c.Stats.Timeouts
			sent += c.Stats.SentBytes
		}
		for _, rc := range r.recvs {
			goodput += rc.Stats.GoodputBytes
		}
		if r.ffc != nil {
			st := r.ffc.Stats()
			ffHorizon += r.s.Duration
			skipped += st.SkippedTime
			arms += st.Arms
			disarms += st.Disarms
		}
	}
	if b := rs.backbone; b != nil {
		engines = append(engines, b.eng)
		countDevices(b.net.Nodes())
		if b.cq != nil {
			addCore(&ceb, b.cq.Stats)
			cebHorizon += b.cfg.Duration
		}
		sentPkts = b.source.Stats.SentPackets
		cuts = b.source.Stats.RateCuts
		peakActive = b.source.Stats.PeakActive
		v["trace.gen_s"] = float64(b.traceGen) / 1e9
	}
	for _, e := range engines {
		events += e.Processed
	}

	self := func(s span) float64 { return float64(t.self[s]) }
	calls := func(s span) float64 { return float64(t.calls[s]) }
	engineSelf := float64(t.engineSelf(runNs))
	// Shares are of the probe-corrected run time, so that they sum to 1.
	var spans uint64
	for _, c := range t.calls {
		spans += c
	}
	run := float64(runNs) - float64(spans)*float64(t.probe)

	v["sim.events"] = float64(events)
	v["sim.events_per_hop"] = ratio(float64(events), float64(hops))
	v["sim.self_ns_per_event"] = ratio(engineSelf, float64(events))
	v["sim.self_share"] = ratio(engineSelf, run)
	v["sim.pending_mean"] = ratio(float64(t.pendingSum), float64(t.pendingN))
	v["sim.pending_max"] = float64(t.pendingMax)

	v["netem.hops"] = float64(hops)
	v["netem.drops"] = float64(drops)
	deqs := calls(spanQdiscDeq) + calls(spanCoreDeq)
	v["netem.deq_hit_ratio"] = ratio(float64(t.hits[spanQdiscDeq]+t.hits[spanCoreDeq]), deqs)

	v["qdisc.enq_calls"] = calls(spanQdiscEnq)
	v["qdisc.enq_ns"] = ratio(self(spanQdiscEnq), calls(spanQdiscEnq))
	v["qdisc.deq_ns"] = ratio(self(spanQdiscDeq), calls(spanQdiscDeq))
	v["qdisc.drop_ratio"] = ratio(float64(t.refused[spanQdiscEnq]), calls(spanQdiscEnq))
	v["qdisc.self_share"] = ratio(self(spanQdiscEnq)+self(spanQdiscDeq), run)

	v["core.enq_calls"] = calls(spanCoreEnq)
	v["core.enq_ns"] = ratio(self(spanCoreEnq), calls(spanCoreEnq))
	v["core.deq_ns"] = ratio(self(spanCoreDeq), calls(spanCoreDeq))
	v["core.lbf_drops"] = float64(ceb.LBFDrops)
	v["core.buffer_drops"] = float64(ceb.BufferDrops)
	v["core.delayed_ratio"] = ratio(float64(ceb.Delayed), float64(ceb.Enqueued))
	v["core.rotations"] = float64(ceb.Rotations)
	v["core.recomputes"] = float64(ceb.Recomputes)
	v["core.saturated_frac"] = ratio(float64(ceb.SaturatedTime), float64(cebHorizon))
	v["core.self_share"] = ratio(self(spanCoreEnq)+self(spanCoreDeq), run)

	v["tcp.acks"] = calls(spanTCPAck)
	v["tcp.ack_ns"] = ratio(self(spanTCPAck), calls(spanTCPAck))
	v["tcp.data_ns"] = ratio(self(spanTCPData), calls(spanTCPData))
	v["tcp.retransmits"] = float64(retrans)
	v["tcp.timeouts"] = float64(timeouts)
	v["tcp.goodput_ratio"] = ratio(float64(goodput), float64(sent))
	v["tcp.self_share"] = ratio(self(spanTCPAck)+self(spanTCPData), run)

	v["replay.sink_ns"] = ratio(self(spanReplaySink), calls(spanReplaySink))
	v["replay.feedback_ns"] = ratio(self(spanReplayFeedback), calls(spanReplayFeedback))
	v["replay.sent_pkts"] = float64(sentPkts)
	v["replay.peak_active"] = float64(peakActive)
	v["replay.rate_cuts"] = float64(cuts)
	v["replay.self_share"] = ratio(self(spanReplaySink)+self(spanReplayFeedback), run)

	v["fluid.skipped_frac"] = ratio(float64(skipped), float64(ffHorizon))
	v["fluid.arms"] = float64(arms)
	v["fluid.disarms"] = float64(disarms)
}

func addCore(sum *core.Stats, s core.Stats) {
	sum.Enqueued += s.Enqueued
	sum.BufferDrops += s.BufferDrops
	sum.LBFDrops += s.LBFDrops
	sum.Delayed += s.Delayed
	sum.Rotations += s.Rotations
	sum.Recomputes += s.Recomputes
	sum.SaturatedTime += s.SaturatedTime
}
