//go:build !linux

package e2e

import "syscall"

// dieWithParent is Linux-only; elsewhere t.Cleanup alone stops a process.
func dieWithParent() *syscall.SysProcAttr { return nil }
