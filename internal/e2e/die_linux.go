package e2e

import "syscall"

// dieWithParent has the kernel SIGKILL the child when the thread that started
// it exits. Go ends a thread only with a goroutine that exits locked to it,
// which no test does: in practice, when the test binary exits, cleanly or not.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
