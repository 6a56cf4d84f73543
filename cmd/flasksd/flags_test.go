package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlasksdRetiredStorageFlags pins what left the flag surface with
// the file-per-object engine: `-engine disk` and `-commit-window` are
// refused with exit status 2 and a line on stderr naming what is
// accepted. (The two smoke tests boot the engines that remain.)
func TestFlasksdRetiredStorageFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "flasksd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build flasksd: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-id", "1", "-engine", "disk", "-data", t.TempDir()}, `unknown -engine "disk" (want log or memory)`},
		{[]string{"-id", "1", "-commit-window", "1ms"}, "flag provided but not defined: -commit-window"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("flasksd %v: err = %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("flasksd %v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}
