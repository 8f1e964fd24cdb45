package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the open-loop sender every period from a Linux timerfd read
// through the runtime's poller. The runtime's own timers round waits below
// a millisecond up to about one when the process is idle, which would make
// the generator — not the server — the largest part of every latency at
// low rates; a timerfd expiry wakes the poller on time.
type pacer struct {
	f   *os.File
	buf [8]byte
}

// pacerPeriod bounds how late the sender can be through its own waiting.
const pacerPeriod = 100 * time.Microsecond

func newPacer(period time.Duration) (*pacer, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = syscall.O_NONBLOCK
		tfdCloexec     = syscall.O_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	ts := syscall.NsecToTimespec(period.Nanoseconds())
	spec := [2]syscall.Timespec{ts, ts} // interval, first expiry
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the next expiry.
func (p *pacer) wait() error {
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
