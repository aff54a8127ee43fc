//go:build race

package vcodec

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so allocation counts that rely on pooling do not hold.
const raceEnabled = true
