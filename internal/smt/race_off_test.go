//go:build !race

package smt_test

// raceDetector reports a -race build, whose allocation counts include the
// detector's own.
const raceDetector = false
