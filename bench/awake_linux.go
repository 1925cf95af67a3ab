//go:build linux

package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Keeping one CPU awake, and a serving workload on it.
//
// A serving workload is one thread (serveProcs). Left alone, the guest
// kernel moves that thread between the virtual CPUs, and in the open loop,
// where it sleeps between ticks, each sleep halts the virtual CPU: the host
// parks it, lets the core's clock drop, and takes its time to bring both
// back. On the box the benchmark was written on that showed as two levels of
// open-loop latency, 195 us and 350 us at the median, a run sitting on one
// or switching between them with nothing in the program to say which.
//
// So while a serving workload's processes run, the benchmark pins them to
// one CPU and runs a burner there: a process of the lowest scheduling class
// (SCHED_IDLE) that spins. It gets the CPU only when nothing else wants it
// and loses it the moment anything does, so it costs the workload nothing,
// and the CPU never idles: what `idle=poll` on the guest's command line
// would do, from user space. With it the same phase reads 165-175 us, run
// after run.

const (
	schedIdle = 5 // SCHED_IDLE
	// burnLimit is the longest a burner lives, whatever becomes of the
	// process that started it: the contract's limit on one run.
	burnLimit = 180 * time.Second
)

func affinity() (mask [16]uint64, ok bool) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	return mask, errno == 0
}

func setAffinity(mask [16]uint64) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	return errno == 0
}

// holdCPU pins the calling thread, and with it every process started from it
// until release, to the last CPU the process may run on (the first takes
// most of the guest's interrupts), and starts the burner there. release
// stops the burner, waits for it, and unpins the thread. Where any of it is
// refused the workload runs unpinned and the result says so (cpu_held 0).
func holdCPU() (release func(), held bool) {
	runtime.LockOSThread()
	old, ok := affinity()
	var one [16]uint64
	for w := len(old) - 1; w >= 0 && ok; w-- {
		if old[w] != 0 {
			bit := 63
			for old[w]&(1<<bit) == 0 {
				bit--
			}
			one[w] = 1 << bit
			break
		}
	}
	if !ok || !setAffinity(one) {
		runtime.UnlockOSThread()
		return func() {}, false
	}
	var burner *exec.Cmd
	if self, err := os.Executable(); err == nil {
		burner = exec.Command(self, "-child", "burn")
		dieWithParent(burner) // it also watches for that itself, and for burnLimit
		if burner.Start() != nil {
			burner = nil
		}
	}
	return func() {
		if burner != nil {
			burner.Process.Kill()
			burner.Wait()
		}
		setAffinity(old)
		runtime.UnlockOSThread()
	}, burner != nil
}

// dieWithParent has the kernel kill cmd's process if this one dies first.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// burn is the burner: it spins in the lowest scheduling class until the
// process that started it is gone or burnLimit has passed. If the class is
// refused it exits at once rather than compete with the workload.
func burn() {
	runtime.LockOSThread()
	var prio int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		return
	}
	parent, start := os.Getppid(), time.Now()
	x := uint64(1)
	for os.Getppid() == parent && time.Since(start) < burnLimit {
		for i := 0; i < 1<<20; i++ {
			x = mix64(x)
		}
	}
	if x == 0 {
		os.Exit(3) // keeps x alive
	}
}
