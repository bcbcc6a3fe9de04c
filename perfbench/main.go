// Command perfbench is the repository's benchmark. It runs one workload
// in one process, single-shard, and prints its metrics as one JSON line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it times the public entry points (scenario.Compile,
// experiments.Run/RunGrid/RunBackbone, trace.Flows) and reports the
// end-to-end metrics. With --trace 1 it rebuilds the same simulation
// from the layers' constructors with timing decorators on every qdisc
// and transport endpoint and reports the per-layer ledger. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"cebinae/experiments"
)

func main() {
	// One P: every simulation here is single-shard, so a second P only
	// runs the collector's background work on the host's other core,
	// whose load the reference kernel (reference.go) cannot see. On the
	// reference host that made the backbone's scaled times drift with
	// the neighbours, and it did not make runs faster.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var name string
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&name, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace wants 0 or 1, got %d", traceFlag)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds wants a positive number, got %v", o.seconds)
	}
	o.trace = traceFlag == 1
	var err error
	o.workload, err = lookup(name)
	return o, err
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The benchmark runs from the root of the module under test.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the module root:", err)
		return 2
	}
	h := fingerprint(".")
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)

	var res result
	if o.trace {
		res = tracedRun(o.workload, o.seed, stdout)
	} else {
		res = timedRun(o.workload, o.seed, o.seconds, stdout)
	}
	out, err := res.encode(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is one run's summary line.
type result struct {
	attempted, failed int
	values            map[string]float64
}

func (r *result) try(what string, log io.Writer, fn func() error) (ok bool) {
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.failed++
			fmt.Fprintf(log, "FAIL %s: panic: %v\n", what, p)
			ok = false
		}
	}()
	if err := fn(); err != nil {
		r.failed++
		fmt.Fprintf(log, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) encode(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
}

// subSeeds derives the input seeds a timed run cycles through. Medians
// over several inputs of one family are steadier across --seed values
// than any single input's time.
func subSeeds(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	x := seed
	for i := range out {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = z ^ (z >> 31)
	}
	return out
}

const (
	// setupBudget bounds the set-up samples of a timed run; at least
	// minSetups are taken whatever they cost. Each sample is followed
	// by a reference kernel (reference.go).
	setupBudget = 2.5 // seconds
	minSetups   = 5
	maxSetups   = 60
)

// timedRun measures the end-to-end metrics: set-up time over repeated
// builds, then whole runs through the public entry points, cycling
// through the seed's derived inputs until each has run and the measured
// time is spent. The first input also runs once untimed beforehand, so
// its report digest is checked for repeating in every run. Every sample
// is bracketed by reference kernels and reported in reference-host
// seconds (reference.go).
func timedRun(w workload, seed uint64, seconds float64, log io.Writer) result {
	res := result{values: map[string]float64{}}
	seeds := subSeeds(seed, w.inputs)

	setups := newScaled()
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start).Seconds() < setupBudget); i++ {
		var d float64
		if !res.try("set-up", log, func() error {
			// Collecting before each sample keeps set-up garbage from
			// setting the process's peak RSS.
			runtime.GC()
			t0 := clock()
			for j := 0; j < w.setupBatch; j++ {
				in, err := w.compile(seeds[(i*w.setupBatch+j)%len(seeds)])
				if err != nil {
					return err
				}
				if _, err := in.build(nil); err != nil {
					return err
				}
			}
			d = float64(clock()-t0) / 1e9 / float64(w.setupBatch)
			return nil
		}) {
			break
		}
		setups.add(d)
	}

	digests := map[uint64]string{}
	runOnce := func(s uint64) (float64, error) {
		runtime.GC()
		t0 := clock()
		in, err := w.compile(s)
		if err != nil {
			return 0, err
		}
		o := in.public()
		wall := float64(clock()-t0) / 1e9
		if o.invalid != nil {
			return wall, o.invalid
		}
		d := digest(o.report)
		if prev, ok := digests[s]; !ok {
			digests[s] = d
			fmt.Fprintf(log, "digest seed=%d %s events=%d\n", s, d, o.events)
		} else if prev != d {
			return wall, fmt.Errorf("seed %d: report digest %s differs from the first run's %s", s, d, prev)
		}
		return wall, nil
	}
	res.try("warm-up run", log, func() error { _, err := runOnce(seeds[0]); return err })
	walls := newScaled()
	// The inputs differ in cost, and a run's samples need not cover them
	// evenly, so wall_s is the mean over inputs of each input's median.
	byInput := make([][]float64, len(seeds))
	start = time.Now()
	for i := 0; i < len(seeds) || time.Since(start).Seconds() < seconds; i++ {
		s := seeds[i%len(seeds)]
		res.try(fmt.Sprintf("run %d (seed %d)", i, s), log, func() error {
			wall, err := runOnce(s)
			if err == nil {
				byInput[i%len(seeds)] = append(byInput[i%len(seeds)], walls.add(wall))
			}
			return err
		})
	}
	fmt.Fprintf(log, "samples wall=%d setup=%d\n", len(walls.norm), len(setups.norm))
	fmt.Fprintf(log, "host wall_s=%.4f setup_s=%.6f ref_s=%.4f\n", median(walls.raw), median(setups.raw), median(walls.refs))
	var perInput float64
	for _, xs := range byInput {
		perInput += median(xs) / float64(len(byInput))
	}
	res.values["wall_s"] = perInput
	res.values["setup_s"] = median(setups.norm)
	res.values["peak_rss_mb"] = peakRSSMB()
	// The contract's exact run is not the workload's: it runs after the
	// peak RSS is read.
	if w.name == "fastforward-long" {
		res.try("fluid error contract", log, checkFluidContract)
	}
	return res
}

// fluidContractHorizon is the horizon of the repository's fast-forward
// differential gate (TestFastForwardDifferential, Cebinae variant).
var fluidContractHorizon = experiments.Seconds(120)

// checkFluidContract re-runs the repository's fluid-vs-packet
// differential cell as its gate does (seed 1, 120 s, Cebinae): fluid
// mode must engage, save at least 5× the events, and keep every flow's
// goodput within 1% of the exact run.
func checkFluidContract() error {
	ff := fastForwardCell(1, fluidContractHorizon)
	ff.Name = "ff-diff"
	exact := ff
	exact.FastForward = false
	er, fr := experiments.Run(exact), experiments.Run(ff)
	if fr.FF.Arms == 0 || fr.FF.Skips == 0 {
		return fmt.Errorf("fluid mode never engaged: %+v", fr.FF)
	}
	if x := float64(er.Events) / float64(fr.Events); x < 5 {
		return fmt.Errorf("event reduction %.2f× below 5×", x)
	}
	if e := worstErr(singleOutcome(er).goodputs, singleOutcome(fr).goodputs); e > 0.01 {
		return fmt.Errorf("worst per-flow goodput error %.3f%% exceeds 1%%", 100*e)
	}
	return nil
}

// worstErr is the worst per-flow relative goodput error of ff against
// exact.
func worstErr(exact, ff []float64) float64 {
	worst := 0.0
	for i := range exact {
		if exact[i] == 0 {
			continue
		}
		if e := math.Abs(ff[i]-exact[i]) / exact[i]; e > worst {
			worst = e
		}
	}
	return worst
}

// tracedRun measures the per-layer ledger at the given seed: one
// untraced run through the public entry points, then the traced rebuild,
// which must reproduce the untraced outcome exactly.
func tracedRun(w workload, seed uint64, log io.Writer) result {
	res := result{values: map[string]float64{}}
	for _, d := range perLayer {
		res.values[d.name] = 0
	}
	v := res.values
	if w.name == "fastforward-long" {
		res.try("fluid error contract", log, checkFluidContract)
	}

	var compiles []float64
	var in *inputs
	if !res.try("compile", log, func() error {
		for i := 0; i < minSetups; i++ {
			t0 := clock()
			var err error
			if in, err = w.compile(seed); err != nil {
				return err
			}
			compiles = append(compiles, float64(clock()-t0)/1e9)
		}
		return nil
	}) {
		return res.finish()
	}
	v["scenario.compile_s"] = median(compiles)

	var pub outcome
	var wallU float64
	if !res.try("untraced run", log, func() error {
		var before, after runtime.MemStats
		sc := newScaled()
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := clock()
		pub = in.public()
		wallU = float64(clock()-t0) / 1e9
		runtime.ReadMemStats(&after)
		v["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		v["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		v["host.wall_raw_s"] = wallU
		v["host.wall_scaled_s"] = sc.add(wallU)
		v["host.ref_s"] = median(sc.refs)
		return pub.invalid
	}) {
		return res.finish()
	}
	var ref outcome
	if !res.try("untraced reference", log, func() error { ref = in.reference(pub); return nil }) {
		return res.finish()
	}
	fmt.Fprintf(log, "digest seed=%d %s events=%d\n", seed, digest(pub.report), ref.events)

	probe := calibrateProbe()
	v["probe_pair_ns"] = float64(probe)
	tr := newTracer(probe)
	var rs *rigSet
	var runNs int64
	res.try("traced run", log, func() error {
		runtime.GC()
		t0 := clock()
		var err error
		if rs, err = in.build(tr); err != nil {
			return err
		}
		runNs = rs.run()
		got := rs.outcome()
		v["trace_overhead_x"] = float64(clock()-t0) / 1e9 / wallU
		if got.ident != ref.ident {
			return fmt.Errorf("traced outcome differs from the untraced run (events %d vs %d)", got.events, ref.events)
		}
		return nil
	})
	if rs != nil {
		ledgerMetrics(v, tr, rs, runNs)
	}

	if len(in.cells) == 1 && in.cells[0].Scenario.FastForward {
		res.try("exact reference run", log, func() error {
			exact := in.cells[0].Scenario
			exact.FastForward = false
			er := singleOutcome(experiments.Run(exact))
			v["err_pct"] = 100 * worstErr(er.goodputs, pub.goodputs)
			v["fluid.events_x"] = float64(er.events) / float64(pub.events)
			return nil
		})
	}
	return res.finish()
}

func (r result) finish() result {
	if r.attempted > 0 {
		r.values["fail_frac"] = float64(r.failed) / float64(r.attempted)
	}
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
