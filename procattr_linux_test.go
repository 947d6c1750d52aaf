//go:build linux

package softsoa_test

import (
	"os/exec"
	"syscall"
)

// dieWithTest has the kernel SIGKILL cmd's process when the test
// binary that started it exits, so a daemon outlives neither a failed
// test nor a -timeout panic, which skips t.Cleanup.
func dieWithTest(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
