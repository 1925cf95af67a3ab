//go:build !linux

package main

import "os/exec"

// holdCPU needs Linux's affinity and SCHED_IDLE; elsewhere a serving
// workload runs unpinned, on a CPU that may idle.
func holdCPU() (release func(), held bool) { return func() {}, false }

func dieWithParent(*exec.Cmd) {}

func burn() {}
