package interp

// SetProfileStepLimitForTest lowers the per-work-item runaway guard so
// tests (and the analyzer fuzzer) can exercise infinite-loop handling
// without executing 64M steps. It returns a restore function.
func SetProfileStepLimitForTest(n int64) (restore func()) {
	old := profStepLimit
	profStepLimit = n
	return func() { profStepLimit = old }
}

// SetBufferLimitForTest lowers validateArgs's buffer-length limit so
// tests reach the check without allocating MaxBufferLen elements. It
// returns a restore function.
func SetBufferLimitForTest(n int64) (restore func()) {
	old := maxBufferLen
	maxBufferLen = n
	return func() { maxBufferLen = old }
}
