package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUsageErrors runs gmr with a flag combination it cannot honour in a
// child process (this test binary, re-entering main): each must exit 2
// with the usage error, before the synthetic dataset is generated.
func TestUsageErrors(t *testing.T) {
	if args := os.Getenv("GMR_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"gmr"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct {
		args, want string
	}{
		{"-substeps 0", "-substeps must be at least 1"},
		{"-slow-span 1ms", "-slow-span requires -metrics-addr"},
		{"-runs 0", "-runs must be at least 1"},
		{"-migrate-every 2", "-migrate-every requires -islands"},
		{"-migrants 3", "-migrants requires -islands"},
		{"-checkpoint run.ckpt", "-checkpoint requires -islands"},
		{"-checkpoint-every 4", "-checkpoint-every requires -islands"},
		{"-resume", "-resume requires -islands"},
		{"-islands 0 -telemetry run.jsonl", "-telemetry requires -islands"},
		{"-posterior 8", "-posterior requires -export-model"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrors$")
			cmd.Env = append(os.Environ(), "GMR_MAIN_ARGS="+tc.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("gmr %s: err %v, want exit status 2\nstdout:\n%s\nstderr:\n%s", tc.args, err, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("gmr %s: stderr does not say %q:\n%s", tc.args, tc.want, &stderr)
			}
			if out := stdout.String(); strings.Contains(out, "dataset") {
				t.Errorf("gmr %s loaded data before rejecting its flags:\n%s", tc.args, out)
			}
		})
	}
}
