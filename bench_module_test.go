package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModuleBuilds vets and builds bench/ against this checkout. bench/
// is a module of its own (replace predstream => ../), so `go build ./... &&
// go test ./...` at the root never compiles it: without this test a change
// to an exported name under internal/ that the benchmark uses breaks the
// benchmark and tier-1 stays green. Needs no network: the module has no
// third-party requirements.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"build", "-o", filepath.Join(t.TempDir(), "predbench"), "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bench: go %v: %v\n%s", args, err, out)
		}
	}
}
