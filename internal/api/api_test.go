package api

import "testing"

func TestStatusForCode(t *testing.T) {
	for _, tc := range []struct {
		code string
		want int
	}{
		{CodeBadRequest, 400},
		{CodeInvalidSpec, 400},
		{CodeNotFound, 404},
		{CodeConflict, 409},
		{CodeQueueFull, 503},
		{CodeDraining, 503},
		{CodeInternal, 500},
		{"no_such_code", 500},
	} {
		if got := StatusForCode(tc.code); got != tc.want {
			t.Errorf("StatusForCode(%q) = %d, want %d", tc.code, got, tc.want)
		}
	}
}

func TestExitForStatus(t *testing.T) {
	for _, tc := range []struct {
		status, want int
	}{
		{200, 0},
		{299, 0},
		{300, 1},
		{404, 1},
		{499, 1},
		{500, 3},
		{503, 3},
	} {
		if got := ExitForStatus(tc.status); got != tc.want {
			t.Errorf("ExitForStatus(%d) = %d, want %d", tc.status, got, tc.want)
		}
	}
}

func TestTerminalState(t *testing.T) {
	for _, tc := range []struct {
		state string
		want  bool
	}{
		{StateQueued, false},
		{StateRunning, false},
		{StateDone, true},
		{StateFailed, true},
		{StateCancelled, true},
	} {
		if got := TerminalState(tc.state); got != tc.want {
			t.Errorf("TerminalState(%q) = %v, want %v", tc.state, got, tc.want)
		}
	}
}
