package main

import (
	"bytes"
	"testing"
)

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "zipf", "--seconds", "0"},
		{"--workload", "zipf", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
