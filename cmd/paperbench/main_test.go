package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the paperbench command:
// with PAPERBENCH_RUN_MAIN=1 it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownSelectionFails: a -table, -figure or -experiment value
// that selects nothing exits non-zero and names the valid values on
// stderr, instead of running no section and exiting 0.
func TestUnknownSelectionFails(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "nosuch"}, "checkpoint, observed"},
		{[]string{"-experiment", "sweep"}, "ratio, accelerator"},
		{[]string{"-table", "9"}, "1, 2, 3, 4"},
		{[]string{"-figure", "3"}, "7, 8"},
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "PAPERBENCH_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("%v: exited %v, want a non-zero exit", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: stderr %q does not list the valid values %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: ran sections before failing: %q", tc.args, stdout.String())
		}
	}
}
