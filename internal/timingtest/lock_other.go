//go:build !unix

package timingtest

// lockFile is a no-op where flock is unavailable: the timing tests then
// run unserialized.
func lockFile(string) (unlock func(), err error) { return func() {}, nil }
