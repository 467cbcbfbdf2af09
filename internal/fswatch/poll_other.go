//go:build !linux || nofsevents

package fswatch

// No kernel facility on this build: New reports ErrUnsupported and
// Watch's poll ticker remains the only change detector.

func newPlatform(paths []string) (*Watcher, error) { return nil, ErrUnsupported }
