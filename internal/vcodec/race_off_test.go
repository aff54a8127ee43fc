//go:build !race

package vcodec

const raceEnabled = false
