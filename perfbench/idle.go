package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on small VMs whose vCPUs halt when they go idle. A
// request that wakes a halted vCPU waits for the hypervisor to schedule
// it again, and that wait (the guest counts it as steal) depends on the
// host's other tenants: between runs minutes apart it moved predict-hot's
// p95 by a factor of four. Every hop of a request between the client,
// the router and the nodes pays it. In the serving workloads a spinner
// at SCHED_IDLE priority on each CPU keeps the vCPUs from halting; the
// kernel runs it only on a CPU with nothing else to run, so it takes no
// time the benchmark or predictd would use. In-process work without such
// hops (table2-offline, the serving runs' offline probe, during which
// the spinner is paused) runs without it:
// there the spinner made the figures spread more, most likely because a
// spinning vCPU slows a busy sibling on the host by a share that varies
// from run to run.

// schedIdle is the Linux SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinner is the running spinner copy.
type spinner struct {
	cmd  *exec.Cmd
	once sync.Once
}

// stop kills the copy and waits for it to exit; calls after the first do
// nothing.
func (s *spinner) stop() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	})
}

// pause stops the copy's threads (SIGSTOP) for in-process work that runs
// without the spinner; resume lets them spin again.
func (s *spinner) pause() error  { return s.cmd.Process.Signal(syscall.SIGSTOP) }
func (s *spinner) resume() error { return s.cmd.Process.Signal(syscall.SIGCONT) }

// startIdleSpinner starts a copy of this binary that spins one
// SCHED_IDLE thread per CPU, and waits until every thread runs at that
// priority.
func startIdleSpinner(cpus int) (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin-idle", strconv.Itoa(cpus))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	spin := &spinner{cmd: cmd}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for n := 0; n < cpus; n++ {
			if !sc.Scan() {
				ready <- fmt.Errorf("idle spinner exited after %d of %d threads", n, cpus)
				return
			}
		}
		ready <- nil
	}()
	select {
	case err = <-ready:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("idle spinner did not start")
	}
	if err != nil {
		spin.stop()
		return nil, err
	}
	return spin, nil
}

// spinIdle is the spinner copy's main: one SCHED_IDLE thread per CPU,
// each reporting on stdout once it runs at that priority.
func spinIdle(cpus int) {
	for i := 0; i < cpus; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				fmt.Fprintln(os.Stderr, "perfbench: setting SCHED_IDLE:", e)
				os.Exit(1)
			}
			fmt.Println("idle")
			for {
			}
		}()
	}
	select {}
}
