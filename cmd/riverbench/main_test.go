package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownExperimentExitsBeforeDataset runs riverbench -exp bogus in a
// child process (this test binary, re-entering main): it must exit 2 with
// the usage error, and must not generate the synthetic dataset first.
func TestUnknownExperimentExitsBeforeDataset(t *testing.T) {
	if os.Getenv("RIVERBENCH_MAIN") == "1" {
		os.Args = []string{"riverbench", "-exp", "bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExitsBeforeDataset$")
	cmd.Env = append(os.Environ(), "RIVERBENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("riverbench -exp bogus: err %v, want exit status 2\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr %q does not name the unknown experiment", stderr.String())
	}
	if out := stdout.String(); strings.Contains(out, "generating synthetic") || strings.Contains(out, "dataset:") {
		t.Errorf("riverbench generated the dataset before rejecting -exp:\n%s", out)
	}
}
