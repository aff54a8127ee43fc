//go:build !race

package icodec

const raceEnabled = false
