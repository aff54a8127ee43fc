// Package fmacontrol is the positive control of TestNoFusedMultiplyAdd:
// a float64 x*y + z that arm64 compiles to one fused multiply-add. If a
// toolchain renames the instruction, this stops matching and the test
// fails instead of passing vacuously.
package fmacontrol

// MulAdd returns x*y + z, which the Go spec lets the compiler fuse.
func MulAdd(x, y, z float64) float64 {
	return x*y + z
}
