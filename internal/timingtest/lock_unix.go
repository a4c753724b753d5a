//go:build unix

package timingtest

import (
	"os"
	"syscall"
)

// lockFile blocks until this process holds an exclusive flock on path.
// The kernel drops the lock if the process dies, so a killed test binary
// cannot wedge the next run.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		_ = f.Close()
		return nil, err
	}
	return func() { _ = f.Close() }, nil
}
