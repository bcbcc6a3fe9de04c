package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report_digests.txt from the current tree")

const digestFile = "testdata/report_digests.txt"

// digestCase is one pinned run: its name and its canonical report.
type digestCase struct {
	name string
	run  func() string
}

// digestCases are short runs whose canonical report bytes are pinned by
// SHA-256 in testdata/report_digests.txt. Each covers a different way
// packets cross links: several access-link delays on one engine, the
// multi-bottleneck chain, cut-link injections between two engines, and a
// fluid fast-forward skip that shifts every pending delivery.
func digestCases() []digestCase {
	rtts := Scenario{
		Name:          "digest/rtts",
		BottleneckBps: 100e6,
		BufferBytes:   1 << 20,
		Groups: []FlowGroup{
			{CC: "newreno", Count: 3, RTT: Millis(10)},
			{CC: "cubic", Count: 2, RTT: Millis(24)},
			{CC: "bbr", Count: 2, RTT: Millis(40)},
			{CC: "newreno", Count: 1, RTT: Millis(66), StartAt: Millis(100)},
		},
		Duration:       Millis(500),
		Qdisc:          Cebinae,
		Seed:           3,
		SampleInterval: Millis(50),
	}
	sharded := rtts
	sharded.Name, sharded.Qdisc, sharded.Shards = "digest/shards2", FQ, 2
	ff := ffCell(Cebinae, Millis(500))
	ff.FastForward = true
	return []digestCase{
		{"dumbbell-rtts", func() string { return Run(rtts).Report() }},
		{"chain-cebinae", func() string { return RunChain(CanonicalChain(Cebinae, Millis(500), 1)).Report() }},
		{"dumbbell-shards2", func() string { return Run(sharded).Report() }},
		{"fastforward-cell", func() string {
			r := Run(ff)
			return r.Report() + fmt.Sprintf("ff=%+v\n", r.FF)
		}},
	}
}

// TestReportDigests pins the report bytes of the digest cases. A change
// that is meant to leave every result untouched (an engine or data
// structure rewrite) must pass it unchanged; a change that moves results
// on purpose regenerates the file with `go test ./experiments/ -run
// TestReportDigests -update` and shows the diff for review.
//
// The digests were made on amd64. Go may fuse x*y+z into one FMA
// instruction on arm64, ppc64le and s390x, which rounds the congestion
// controllers' and the fluid model's floating point differently, so the
// pinned bytes hold only on amd64.
func TestReportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("report digests are pinned on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	var got []string
	for _, c := range digestCases() {
		sum := sha256.Sum256([]byte(c.run()))
		got = append(got, c.name+" "+hex.EncodeToString(sum[:]))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, the cases produce %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report digest changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
