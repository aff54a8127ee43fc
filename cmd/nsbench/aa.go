package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAA is the A/A mode: two sets of n runs of the same code per
// workload, every run a fresh process with its own seed, exactly as the
// driver invokes the benchmark. For each (workload, metric) it prints
// the two set medians, their gap, each set's interquartile spread (both
// as shares of the median) and the bound the issue's rule gives:
// max(class bound, 3 × the larger of gap and spread).
func runAA(names []string, n int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("| workload | metric | median A | median B | gap | spread A | spread B | class bound | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				runSeed := seed + int64(s*n+i)
				cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(runSeed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", name, runSeed, err, stderr.String())
				}
				var line struct {
					Correct bool              `json:"correct"`
					Failed  int64             `json:"failed"`
					Metrics map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(lastLine(out), &line); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", name, runSeed, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: %d failed ops", name, runSeed, line.Failed)
				}
				for k, m := range line.Metrics {
					sets[s][k] = append(sets[s][k], m.Value)
				}
				fmt.Fprintf(logw, "nsbench: aa %s set %c run %d/%d done\n", name, 'A'+s, i+1, n)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			gap := relGap(d, ma, mb)
			sa, sb := spread(a), spread(b)
			bound := max(d.bound, 3*max(gap, sa, sb))
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
				name, d.name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.bound, 100*bound)
		}
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = []byte(l)
		}
	}
	return last
}

// relGap is how much worse set B's median is than set A's, as a share
// of A's: positive means B regressed.
func relGap(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the interquartile range over the median, with the quartiles
// of Python's statistics.quantiles(values, n=4) (the exclusive method),
// which is what the driver computes.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
