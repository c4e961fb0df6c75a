package storage

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so the
// view and write(2) share one page cache: what Append wrote is there to
// read without a remap. Linux allows a mapping to reach past the end of
// the file; touching a page wholly beyond it faults. A variable so that
// a test can make mapping fail.
var mapFile = func(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, syscall.EOVERFLOW
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(m []byte) error { return syscall.Munmap(m) }
