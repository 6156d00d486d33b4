package vmi

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fdAlarm is a timerfd read through the netpoller. The release goroutine
// parks on the descriptor like a socket reader, and the kernel's
// high-resolution timer makes it readable at the armed instant: the wake-up
// does not pass through the Go runtime's idle sleep, whose timeout is in
// whole milliseconds (epoll_wait) and so runs up to 1 ms long.
type fdAlarm struct {
	f  *os.File
	fd uintptr // f's descriptor; f.Fd() would put it back in blocking mode
}

// newAlarm is the platform's alarm: a timerfd, or the runtime timer if the
// kernel will not give one (descriptor limit, a sandbox without the call).
func newAlarm() alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerAlarm()
	}
	// A descriptor that is already non-blocking is registered with the poller.
	return &fdAlarm{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func (a *fdAlarm) arm(d time.Duration) {
	if d < 1 {
		d = 1 // a zero it_value disarms the timer
	}
	// struct itimerspec{it_interval, it_value}: one shot, relative.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	// Cannot fail: the descriptor is a live timerfd (the device never arms
	// after close) and the value is a valid positive timespec.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (a *fdAlarm) wait() bool {
	var expirations [8]byte
	_, err := a.f.Read(expirations[:])
	return err == nil
}

func (a *fdAlarm) close() { _ = a.f.Close() }
