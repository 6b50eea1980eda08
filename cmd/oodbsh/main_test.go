package main

import "testing"

// TestRunRejectsBadFlags: a malformed command line is an error from run,
// before any server is opened or dialled, never a panic.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-addr"},
		{"-dir", "x", "-pages"},
		{"-nosuchflag"},
		{"-pages", "x"},
		{"-proto", "PS-AA", "stray"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
}
