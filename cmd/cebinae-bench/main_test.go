package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHostFingerprint(t *testing.T) {
	if h := hostFingerprint(); !strings.Contains(h, "nproc=") || !strings.Contains(h, "go") {
		t.Fatalf("fingerprint %q lacks the CPU count or Go version", h)
	}
}

// TestBenchJSONRefusesUnparsableFile: rewriting a snapshot that does not
// parse would silently drop its baseline rows, so the run stops first
// and leaves the file as it was.
func TestBenchJSONRefusesUnparsableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	const torn = `{"go": "go1.22", "current": [`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBenchJSON(path, false); err == nil {
		t.Fatal("runBenchJSON accepted an unparsable snapshot")
	}
	if got, _ := os.ReadFile(path); string(got) != torn {
		t.Fatalf("snapshot rewritten to %q", got)
	}
}
