package main

import (
	"sort"
	"time"
)

// On a shared host, other tenants' load changes how fast the same
// campaign runs by up to a quarter, over phases lasting tens of seconds
// to minutes, and CPU time drifts with wall time. A run therefore also
// times a fixed piece of work that none of the repository's code takes
// part in, the calibration, right before every campaign and every
// set-up, and reports each time metric in reference seconds: the
// measured time scaled by refCalibration over the run's median
// calibration time. README.md gives the measurements behind this.

// calibrationWords is the length of the calibration's sort. Its 2 MiB
// working set and branchy comparisons track the campaigns' slowdowns
// better than a straight-line hash does.
const calibrationWords = 1 << 18

// refCalibration is the calibration's median time on the 2-vCPU Intel
// Xeon VM that the sizing in README.md was measured on. Reference
// seconds are seconds on a host where the calibration takes this long.
const refCalibration = 55 * time.Millisecond

var calibrationBuf = make([]uint64, calibrationWords)

// calibrate times one sort of calibrationWords pseudo-random words drawn
// from a fixed seed.
func calibrate() time.Duration {
	x := uint64(88172645463325252)
	for i := range calibrationBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibrationBuf[i] = x
	}
	start := time.Now()
	sort.Slice(calibrationBuf, func(i, j int) bool { return calibrationBuf[i] < calibrationBuf[j] })
	return time.Since(start)
}

// hostScale converts the run's measured times to reference seconds.
func hostScale(calibrations []float64) float64 {
	return refCalibration.Seconds() / median(calibrations)
}
