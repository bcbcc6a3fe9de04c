package main

import (
	"fmt"

	"cebinae/experiments"
	"cebinae/internal/scenario"
)

// workload is one benchmark input family. compile turns a seed into the
// workload's inputs through the scenario compiler (or, for the
// fast-forward cell, which no spec kind expresses, a Go literal).
type workload struct {
	name    string
	why     string
	compile func(seed uint64) (*inputs, error)
	// inputs is how many derived seeds a timed run cycles through, and
	// setupBatch how many builds one set-up sample times: enough that
	// the medians of one run stay steady across --seed values.
	inputs, setupBatch int
}

var workloads = []workload{
	{
		name:    "dumbbell-cebinae",
		why:     "paper-scale packet stack: 130 TCP flows over a 1 Gbps Cebinae bottleneck (Fig. 8a, Table 2)",
		compile: compileDumbbell,
		inputs:  12, setupBatch: 16,
	},
	{
		name:    "backbone-1e5",
		why:     "10^5 standing replay flows through a 10 Gbps Cebinae core: timing wheel, replay, trace and hhcache churn, no TCP",
		compile: compileBackbone,
		inputs:  6, setupBatch: 1,
	},
	{
		name:    "tournament",
		why:     "72 short NewReno/Cubic/BBR cells run serially under fifo, fq and cebinae: per-cell set-up, loss recovery, core bypassed",
		compile: compileTournament,
		inputs:  12, setupBatch: 4,
	},
	{
		name:    "fastforward-long",
		why:     "access-limited 4xBBR Cebinae cell at 600 s with fluid fast-forward: fluid does the work, packet layers idle",
		compile: compileFastForward,
		inputs:  12, setupBatch: 256,
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// The specs are the repository's scenario files as the benchmark runs
// them. They are embedded rather than read from scenarios/ so that the
// benchmark's inputs change only when the benchmark does.
const (
	dumbbellSpec = `{
  "version": 1,
  "name": "dumbbell-cebinae",
  "kind": "dumbbell",
  "dumbbell": {
    "rate": "1G",
    "buffer_bytes": 1275000,
    "groups": [
      {"cc": "newreno", "count": 128, "rtt": "40ms"},
      {"cc": "bbr", "count": 2, "rtt": "40ms"}
    ],
    "duration": "3s",
    "qdisc": "cebinae"
  }
}`
	// backboneSpec is scenarios/backbone-1e5.json.
	backboneSpec = `{
  "version": 1,
  "name": "backbone-100k",
  "kind": "backbone",
  "backbone": {"flows": 100000, "scale": "full"}
}`
	// tournamentSpec is scenarios/tournament.json with fq added beside
	// fifo and cebinae, so all three Table 2 disciplines run.
	tournamentSpec = `{
  "version": 1,
  "name": "cca-tournament",
  "kind": "tournament",
  "tournament": {
    "ccas": ["newreno", "cubic", "bbr"],
    "flows_per_cca": 2,
    "rate": "20M",
    "base_rtt": "20ms",
    "rtt_ratios": [1, 2],
    "buffer_bytes": [37500, 300000],
    "qdiscs": ["fifo", "fq", "cebinae"],
    "duration": "1s",
    "min_rto": "200ms"
  }
}`
)

// inputs is one workload instance: what a seed compiles to.
type inputs struct {
	// cells are the dumbbell-family simulations (one, or a grid's cells).
	cells []experiments.GridCell
	// grid names the grid when the workload runs through RunGrid.
	grid     string
	backbone *experiments.BackboneConfig
}

func compileSpec(text string, seed uint64) (*scenario.Compiled, error) {
	spec, err := scenario.Parse([]byte(text))
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return scenario.Compile(spec)
}

func compileDumbbell(seed uint64) (*inputs, error) {
	c, err := compileSpec(dumbbellSpec, seed)
	if err != nil {
		return nil, err
	}
	return &inputs{cells: []experiments.GridCell{{ID: c.Spec.Name, Scenario: *c.Dumbbell}}}, nil
}

func compileBackbone(seed uint64) (*inputs, error) {
	c, err := compileSpec(backboneSpec, seed)
	if err != nil {
		return nil, err
	}
	// The backbone tier fixes its trace seed; the workload seed drives
	// the flow schedule instead.
	c.Backbone.Trace.Seed = seed
	return &inputs{backbone: c.Backbone}, nil
}

func compileTournament(seed uint64) (*inputs, error) {
	c, err := compileSpec(tournamentSpec, seed)
	if err != nil {
		return nil, err
	}
	return &inputs{cells: c.Grid, grid: c.Spec.Name}, nil
}

// fastForwardCell is the access-limited 4×BBR Cebinae cell of the
// repository's fast-forward differential, with fluid acceleration on.
func fastForwardCell(seed uint64, horizon experiments.SimTime) experiments.Scenario {
	return experiments.Scenario{
		Name: "fastforward-long", BottleneckBps: 100e6, BufferBytes: 375000,
		AccessBps: 20e6,
		Groups:    []experiments.FlowGroup{{CC: "bbr", Count: 4, RTT: experiments.Millis(40)}},
		Duration:  horizon, Qdisc: experiments.Cebinae, Seed: seed,
		FastForward: true,
	}
}

func compileFastForward(seed uint64) (*inputs, error) {
	s := fastForwardCell(seed, experiments.Seconds(600))
	return &inputs{cells: []experiments.GridCell{{ID: s.Name, Scenario: s}}}, nil
}

// outcome is what one run of a workload produced.
type outcome struct {
	// report is the canonical simulated report; its digest must repeat
	// across runs of one seed.
	report string
	// ident is what a traced run of the same inputs must reproduce:
	// event counts and per-flow and core counters.
	ident  string
	events uint64
	// goodputs lists per-flow goodput (bit/s) of a single-cell run.
	goodputs []float64
	// invalid reports an invariant the report itself violates.
	invalid error
}

func identOf(r experiments.Result) string {
	return r.Report() + fmt.Sprintf("ff=%+v\n", r.FF)
}

func singleOutcome(r experiments.Result) outcome {
	o := outcome{report: identOf(r), events: r.Events}
	o.ident = o.report
	for _, f := range r.Flows {
		o.goodputs = append(o.goodputs, f.GoodputBps)
	}
	return o
}

// public runs the inputs once through the simulator's public entry
// points: RunBackbone, RunGrid or Run.
func (in *inputs) public() outcome {
	switch {
	case in.backbone != nil:
		r := experiments.RunBackbone(*in.backbone)
		o := outcome{report: r.Render(), ident: fmt.Sprintf("%+v", countersOf(r)), events: r.Events}
		if r.SketchUnderestimates != 0 {
			o.invalid = fmt.Errorf("count-min sketch undercounted %d top flows", r.SketchUnderestimates)
		}
		return o
	case in.grid != "":
		return outcome{report: experiments.RunGrid(in.grid, in.cells).Report()}
	default:
		return singleOutcome(experiments.Run(in.cells[0].Scenario))
	}
}

// reference is the untraced outcome a traced run is held to. A grid's
// report carries no counters, so its cells are re-run one by one through
// Run for their full reports.
func (in *inputs) reference(public outcome) outcome {
	if in.grid == "" {
		return public
	}
	var o outcome
	for _, c := range in.cells {
		r := experiments.Run(c.Scenario)
		o.ident += identOf(r)
		o.events += r.Events
	}
	return o
}

// rigSet is the inputs rebuilt from the layers' constructors.
type rigSet struct {
	dumbbells []*dumbbellRig
	backbone  *backboneRig
}

func (in *inputs) build(tr *tracer) (*rigSet, error) {
	rs := &rigSet{}
	if in.backbone != nil {
		r, err := buildBackbone(*in.backbone, tr)
		if err != nil {
			return nil, err
		}
		rs.backbone = r
		return rs, nil
	}
	for _, c := range in.cells {
		r, err := buildDumbbell(c.Scenario, tr)
		if err != nil {
			return nil, err
		}
		rs.dumbbells = append(rs.dumbbells, r)
	}
	return rs, nil
}

// run advances every rig to its horizon, one after another, and returns
// the host time spent inside Engine.Run.
func (rs *rigSet) run() int64 {
	var ns int64
	if rs.backbone != nil {
		t0 := clock()
		rs.backbone.run()
		return clock() - t0
	}
	for _, r := range rs.dumbbells {
		t0 := clock()
		r.run()
		ns += clock() - t0
	}
	return ns
}

// outcome returns the identity part of the rigs' outcome, formatted as
// reference formats the untraced one.
func (rs *rigSet) outcome() outcome {
	if rs.backbone != nil {
		c := rs.backbone.counters()
		return outcome{ident: fmt.Sprintf("%+v", c), events: c.Events}
	}
	var o outcome
	for _, r := range rs.dumbbells {
		res := r.result()
		o.ident += identOf(res)
		o.events += res.Events
	}
	return o
}
