//go:build !race

package core

// raceDetector reports a -race build.
const raceDetector = false
