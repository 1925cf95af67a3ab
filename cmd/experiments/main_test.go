package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSpecRejectsGridFlags runs the command itself (this test binary
// re-executed as main) and requires exit status 2 for every flag -spec
// does not read, and a clean run for -spec alone.
func TestSpecRejectsGridFlags(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	const spec = "-spec LL/RANDOM/OPT/Pipelined/in-order:ops=10:seed=1"
	exitCode := func(extra string) int {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSpecRejectsGridFlags$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS="+spec+" "+extra)
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("%s: %v", extra, err)
		}
		return 0
	}
	if code := exitCode(""); code != 0 {
		t.Fatalf("-spec alone exited %d", code)
	}
	for _, extra := range []string{"-exp fig9a", "-quick", "-seed 2", "-out x.md", "-parallel 2", "-quiet", "-progress 1s"} {
		if code := exitCode(extra); code != 2 {
			t.Errorf("-spec with %s exited %d, want 2", extra, code)
		}
	}
}
