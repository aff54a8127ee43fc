package neuroscaler

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedFreePackages are the packages whose compiled code must hold no
// fused multiply-add on any architecture: everything that produces or
// parses codec bytes, the scaling and super-resolution kernels that
// produce the pixels anchors are coded from, the anchor selection and
// scheduling that decide which frames become anchors, and the quality
// metrics (PSNR, SSIM) every reported figure is measured with.
var fusedFreePackages = []string{
	"./internal/anchor",
	"./internal/metrics",
	"./internal/sched",
	"./internal/frame",
	"./internal/sr",
	"./internal/transform",
	"./internal/icodec",
	"./internal/vcodec",
	"./internal/bitstream",
	"./internal/hybrid",
}

// fmaControl compiles a float64 x*y + z; arm64 must fuse it.
const fmaControl = "./testdata/fmacontrol"

// fusedOp matches a fused multiply-add mnemonic in -S output on arm64,
// ppc64le, s390x and riscv64: FMADD, FMSUB, FNMADD, FNMSUB and their
// single/double-precision forms.
var fusedOp = regexp.MustCompile(`\)\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// TestNoFusedMultiplyAdd cross-compiles the codec packages for the
// architectures that fuse x*y + z and requires zero fused multiply-adds
// in them. amd64 never fuses, so no amd64 test can see the rounding
// difference a fused op would make to codec bytes on those machines.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles for four architectures")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	pkgs := slices.Concat(fusedFreePackages, []string{fmaControl})
	args := append([]string{"build", "-o", os.DevNull, "-gcflags=-S"}, pkgs...)
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		fused := fusedByPackage(out)
		for _, pkg := range pkgs {
			if _, ok := fused[pkg]; !ok {
				t.Fatalf("GOARCH=%s: no assembly listed for %s", arch, pkg)
			}
		}
		for _, pkg := range fusedFreePackages {
			if sites := fused[pkg]; len(sites) > 0 {
				t.Errorf("GOARCH=%s: %d fused multiply-adds in %s:\n%s", arch, len(sites), pkg, strings.Join(sites, "\n"))
			}
		}
		if arch == "arm64" && len(fused[fmaControl]) == 0 {
			t.Errorf("GOARCH=arm64: the positive control %s shows no fused multiply-add; the mnemonic pattern is stale", fmaControl)
		}
	}
}

// fusedByPackage splits go build -gcflags=-S output at its "# <import
// path>" headers and lists each package's fused-op lines, keyed by the
// package's ./-relative path; a package that compiled with none maps to
// an empty list.
func fusedByPackage(out []byte) map[string][]string {
	const module = "github.com/neuroscaler/neuroscaler/"
	fused := make(map[string][]string)
	pkg := ""
	for _, line := range strings.Split(string(out), "\n") {
		if path, ok := strings.CutPrefix(line, "# "); ok {
			pkg = "./" + strings.TrimPrefix(path, module)
			if _, seen := fused[pkg]; !seen {
				fused[pkg] = nil
			}
			continue
		}
		if pkg != "" && fusedOp.MatchString(line) {
			fused[pkg] = append(fused[pkg], strings.TrimSpace(line))
		}
	}
	return fused
}
