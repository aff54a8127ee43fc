//go:build !race

package sr

const raceEnabled = false
