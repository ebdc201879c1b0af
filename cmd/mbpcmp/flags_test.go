package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation: bad -j and -most-failed values must be rejected as
// usage errors with a message naming the flag, before any trace is opened —
// never silently clamped or read as the default.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"j zero", []string{"-trace", "nope.sbbt", "-j", "0"}, "-j must be >= 1"},
		{"j negative", []string{"-trace", "nope.sbbt", "-j", "-2"}, "-j must be >= 1"},
		{"missing trace", []string{"-j", "2"}, "-trace is required"},
		{"most-failed negative", []string{"-trace", "nope.sbbt", "-most-failed", "-3"}, "-most-failed must be >= 0"},
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
