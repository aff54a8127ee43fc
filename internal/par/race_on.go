//go:build race

package par

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so allocation counts that rely on pooling do not hold, and
// SlabPool clears what it is handed back, so a use after Put shows up as
// wrong bytes.
const raceEnabled = true
