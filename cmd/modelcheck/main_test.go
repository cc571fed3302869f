package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain makes the test binary double as the modelcheck CLI: with
// MODELCHECK_CLI=1 in its environment it runs main on its arguments, so
// the tests below drive the real flag surface in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("MODELCHECK_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cli runs modelcheck with args in a child process and returns its
// stdout.
func cli(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MODELCHECK_CLI=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("modelcheck %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestStdoutDeterministic: the checker uses no randomness and prints no
// wall-clock values, so its stdout is byte-identical across runs and
// worker counts, and names Protocol 3's weak-fairness witness.
func TestStdoutDeterministic(t *testing.T) {
	var outs [][]byte
	for _, workers := range []string{"1", "2"} {
		for run := 0; run < 2; run++ {
			outs = append(outs, cli(t, "-protocol", "globalp", "-p", "3", "-n", "3", "-workers", workers))
		}
	}
	for i, out := range outs[1:] {
		if !bytes.Equal(out, outs[0]) {
			t.Fatalf("run %d stdout differs from run 0:\n%s\nvs\n%s", i+1, out, outs[0])
		}
	}
	if !bytes.Contains(outs[0], []byte("[2 1 0 | BST{n:3 k:4 ptr:2}]")) {
		t.Errorf("stdout lacks the weak-fairness witness:\n%s", outs[0])
	}
}

// TestAllLeadersStartSet: -allleaders starts Protocol 2 from every
// leader state in its declared domain — (P+2)·(2^P+1) = 20 leaders at
// P = 2 — times the 3^2 mobile configurations.
func TestAllLeadersStartSet(t *testing.T) {
	out := cli(t, "-protocol", "selfstab", "-p", "2", "-n", "2", "-allleaders")
	if !bytes.Contains(out, []byte("N=2, 180 starting configurations")) {
		t.Errorf("want 180 starting configurations:\n%s", out)
	}
}
