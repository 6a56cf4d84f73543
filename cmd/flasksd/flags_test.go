package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlasksdRetiredFlags pins what left the flag surface: `-engine
// disk` and `-commit-window` with the file-per-object engine,
// `-ae-full-every` with the repair protocol's second leg, `-udp-addr`
// with the datagram control plane, and `-slicer swap` with the swap
// slicer's place in the product. Each is refused with exit status 2
// and a line on stderr naming what is wrong. (The two smoke tests boot
// the engines that remain.)
func TestFlasksdRetiredFlags(t *testing.T) {
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
		{[]string{"-id", "1", "-ae-full-every", "8"}, "flag provided but not defined: -ae-full-every"},
		{[]string{"-id", "1", "-udp-addr", "auto"}, "flag provided but not defined: -udp-addr"},
		{[]string{"-id", "1", "-slicer", "swap"}, `unknown -slicer "swap" (want rank or static)`},
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
