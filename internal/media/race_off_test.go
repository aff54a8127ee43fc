//go:build !race

package media

const raceEnabled = false
