//go:build !linux

package softsoa_test

import "os/exec"

// dieWithTest is a no-op where the kernel offers no parent-death
// signal; t.Cleanup still stops what a test started.
func dieWithTest(*exec.Cmd) {}
