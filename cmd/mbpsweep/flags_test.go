package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation: bad -j values must be rejected as usage errors with
// a message naming the flag, before any trace is opened — never silently
// clamped.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"j zero", []string{"-traces", "nope.sbbt", "-j", "0"}, "-j must be >= 1"},
		{"j negative", []string{"-traces", "nope.sbbt", "-j", "-8"}, "-j must be >= 1"},
		{"missing traces", []string{"-j", "2"}, "-traces is required"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != exitUsage {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitUsage, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}
