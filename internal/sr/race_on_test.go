//go:build race

package sr

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so allocation bounds that rely on pooling do not hold.
const raceEnabled = true
