package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cebinae/experiments"
)

// TestDecoratorsTransparent holds the traced build to the entry point it
// mirrors: with and without the timing decorators, a rig reproduces the
// untraced run's report byte for byte.
func TestDecoratorsTransparent(t *testing.T) {
	small := experiments.Scenario{
		Name: "small", BottleneckBps: 100e6, BufferBytes: 250 * 1500,
		Groups: []experiments.FlowGroup{
			{CC: "newreno", Count: 3, RTT: experiments.Millis(20)},
			{CC: "cubic", Count: 2, RTT: experiments.Millis(60)},
			{CC: "bbr", Count: 1, RTT: experiments.Millis(40), StartAt: experiments.Seconds(0.5)},
		},
		Duration: experiments.Seconds(2), Seed: 7,
	}
	cases := []experiments.Scenario{}
	for _, q := range []experiments.QdiscKind{experiments.FIFO, experiments.FQ, experiments.Cebinae} {
		s := small
		s.Qdisc = q
		cases = append(cases, s)
	}
	// Fast-forward exercises the fluid wiring and ShiftTime forwarding.
	cases = append(cases, fastForwardCell(3, experiments.Seconds(20)))
	for _, s := range cases {
		want := experiments.Run(s)
		if s.FastForward && want.FF.Skips == 0 {
			t.Fatalf("%s: fluid mode never engaged, so the case tests nothing: %+v", s.Name, want.FF)
		}
		for _, tr := range []*tracer{nil, newTracer(0)} {
			r, err := buildDumbbell(s, tr)
			if err != nil {
				t.Fatal(err)
			}
			r.run()
			if got := identOf(r.result()); got != identOf(want) {
				t.Errorf("%s/%s traced=%v: report differs\n got: %s\nwant: %s", s.Name, s.Qdisc, tr != nil, got, identOf(want))
			}
			if tr != nil && (tr.calls[spanTCPAck] == 0 || tr.calls[spanTCPData] == 0 || tr.calls[spanQdiscEnq] == 0) {
				t.Errorf("%s/%s: decorators recorded no spans: %+v", s.Name, s.Qdisc, tr.calls)
			}
		}
	}

	cfg := experiments.BackboneTier(2000, experiments.Quick)
	want := countersOf(experiments.RunBackbone(cfg))
	for _, tr := range []*tracer{nil, newTracer(0)} {
		r, err := buildBackbone(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		r.run()
		if got := r.counters(); got != want {
			t.Errorf("backbone traced=%v: counters differ\n got: %+v\nwant: %+v", tr != nil, got, want)
		}
	}
}

// TestInputsDeterministic checks that each workload's inputs are a pure
// function of the seed and that another seed gives other inputs.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.compile(1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := w.compile(1)
		c, _ := w.compile(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 compiled to different inputs twice", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 compiled to the same inputs", w.name)
		}
		if got := subSeeds(5, w.inputs); !reflect.DeepEqual(got, subSeeds(5, w.inputs)) || len(got) != w.inputs {
			t.Errorf("%s: derived seeds not deterministic: %v", w.name, got)
		}
	}
}

// TestSecondSeedRunsCleanly runs every workload at a seed other than the
// default: its report must repeat and satisfy its invariants. The
// tournament also goes through both modes of the command.
func TestSecondSeedRunsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once at full size")
	}
	for _, w := range workloads {
		in, err := w.compile(2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		a := in.public()
		if a.invalid != nil {
			t.Errorf("%s: %v", w.name, a.invalid)
		}
		if w.name == "tournament" || w.name == "dumbbell-cebinae" {
			if b := in.public(); b.report != a.report {
				t.Errorf("%s: report differs between two runs of seed 2", w.name)
			}
		}
	}
	for _, mode := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", "tournament", "--seed", "2", "--seconds", "0.5", "--trace", mode}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: not clean: %+v\n%s", mode, res, out.String())
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--seed", "1"},
		{"--workload", "tournament", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks every emitted name against the
// allowed alphabet and against BENCHMARK.json, which declares them.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.name)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q %q", i, bench.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, json []metric, defs []metricDef) {
		if len(json) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(json), len(defs))
		}
		for i, d := range defs {
			if m := json[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestScaledPairsKernels checks the reference scaling: each sample is
// divided by the mean of the kernel times just before and just after it.
func TestScaledPairsKernels(t *testing.T) {
	s := newScaled()
	got := []float64{s.add(0.5), s.add(2)}
	if len(s.refs) != 3 || len(s.raw) != 2 {
		t.Fatalf("want 3 kernels around 2 samples, got %d and %d", len(s.refs), len(s.raw))
	}
	for i, host := range []float64{0.5, 2} {
		want := host / ((s.refs[i] + s.refs[i+1]) / 2) * refNominal
		if got[i] != want || s.norm[i] != want || s.raw[i] != host {
			t.Errorf("sample %d: scaled %v (kept %v, raw %v), want %v from host %v and kernels %v", i, got[i], s.norm[i], s.raw[i], want, host, s.refs)
		}
	}
}
