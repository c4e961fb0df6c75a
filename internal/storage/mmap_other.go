//go:build !linux

package storage

import (
	"errors"
	"os"
)

// mapFile fails where a shared mapping that stays coherent with write
// and may reach past the end of the file is not known to hold: every
// read takes the ReadAt path.
var mapFile = func(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }
