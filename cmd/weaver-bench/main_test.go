package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentFails runs the real binary: a name that is not in
// the experiment table must exit 2 and list exactly the accepted names (a
// CI step naming a deleted experiment used to run nothing and stay green),
// while a known name still runs and exits 0.
func TestUnknownExperimentFails(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "weaver-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-experiment", "nope").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("unknown experiment: err=%v, want exit status 2\n%s", err, out)
	}
	const valid = "valid: all table1 fig7 fig8 fig9a fig9b fig10 fig11 fig12 fig13 fig14 ablation-partition\n"
	if !strings.HasSuffix(string(out), valid) {
		t.Fatalf("unknown experiment output %q does not end with %q", out, valid)
	}

	out, err = exec.Command(bin, "-experiment", "table1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "get_node") {
		t.Fatalf("table1: err=%v\n%s", err, out)
	}
}
