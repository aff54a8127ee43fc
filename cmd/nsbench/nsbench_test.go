package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestWorkloads is the self-test: a one-second traced pass over each of
// the four workloads, which yields both metric sets at once.
func TestWorkloads(t *testing.T) {
	logw = io.Discard
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	// The per-role views each workload must fill; every other one reads 0.
	// (op_p90_ms is a view too, filled everywhere.)
	rows := map[string][]string{
		"ingest_cpu":    {"ingest_cps", "ingest_p50_ms", "ingest_p90_ms", "gpu_ms_per_op"},
		"ingest_gpu":    {"ingest_cps", "ingest_p50_ms", "ingest_p90_ms", "gpu_ms_per_op"},
		"delivery_zipf": {"fetch_cps", "fetch_p50_ms", "fetch_p90_ms"},
		"live_mixed": {"ingest_cps", "ingest_p50_ms", "ingest_p90_ms", "gpu_ms_per_op",
			"fetch_cps", "fetch_p50_ms", "fetch_p90_ms", "glass_p50_ms", "glass_p90_ms"},
	}
	views := rows["live_mixed"]
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			res, err := runWorkload(config{
				workload: name, seed: 3, window: time.Second, warmup: 100 * time.Millisecond,
				setupReps: 1, trace: true, traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			check := func(kind string, defs []metricDef, got map[string]metric, nonZero bool) {
				if len(got) != len(defs) {
					t.Errorf("%s: %d metrics, %d declared", kind, len(got), len(defs))
				}
				for _, d := range defs {
					m, ok := got[d.name]
					switch {
					case !nameRE.MatchString(d.name):
						t.Errorf("%s: bad name %q", kind, d.name)
					case !ok:
						t.Errorf("%s: %s missing", kind, d.name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %s = %v", kind, d.name, m.Value)
					case nonZero && m.Value == 0:
						t.Errorf("%s: %s is zero", kind, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: %s unit %q, declared %q", kind, d.name, m.Unit, d.unit)
					}
				}
			}
			check("end_to_end", endToEnd, res.EndToEnd, true)
			check("per_layer", perLayer, res.PerLayer, false)
			inRow := map[string]bool{}
			for _, v := range rows[name] {
				inRow[v] = true
			}
			for _, v := range views {
				if got := res.PerLayer[v].Value; inRow[v] != (got != 0) {
					t.Errorf("view %s = %v; in this workload's row: %v", v, got, inRow[v])
				}
			}
			if name == "delivery_zipf" {
				if got := res.PerLayer["media.server.lazy_builds"].Value; got != zipfStreams*zipfChunks {
					t.Errorf("lazy_builds = %v, want the catalog size %d", got, zipfStreams*zipfChunks)
				}
			}
			if !ledgerClosed(res.counters) {
				t.Errorf("anchor ledger open: %+v", res.counters)
			}
			if fi, err := os.Stat(res.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after teardown, %d before", n, baseline)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own metric
// and workload lists in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: %+v, program has %+v", kind, i, g, d)
			}
			if d.bound > 0 && (g.Bound == nil || *g.Bound < d.bound || *g.Bound > 0.25) {
				t.Errorf("%s: %s bound %v, class bound %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true},  // exactly ten beyond
		{100, 0.99, 99, false}, // one beyond
		{99, 0.90, 90, false},  // nine beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(xs[:c.n], c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestZipfPicker(t *testing.T) {
	const n = 256
	z := newZipf(n, 1.0)
	if z.rank(0) != 0 || z.rank(math.Nextafter(1, 0)) != n-1 {
		t.Fatalf("rank(0) = %d, rank(1-) = %d", z.rank(0), z.rank(math.Nextafter(1, 0)))
	}
	harmonic := 0.0
	for i := 1; i <= n; i++ {
		harmonic += 1 / float64(i)
	}
	keys := newZipfKeys(1, 0, n)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		r, _ := keys.next()
		counts[r]++
	}
	for _, r := range []int{0, 1, 9, 99} {
		want := draws / (float64(r+1) * harmonic)
		if got := float64(counts[r]); math.Abs(got-want) > 5*math.Sqrt(want)+1 {
			t.Errorf("rank %d drawn %v times, want about %.0f", r, got, want)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	const cycle, warm = 30 * time.Second, 3 * time.Second
	a := mergeArrivals(7, 0, 3, 2.5, cycle, warm)
	b := mergeArrivals(7, 0, 3, 2.5, cycle, warm)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("one seed gave two arrival lists (%d and %d entries)", len(a), len(b))
	}
	other := mergeArrivals(8, 0, 3, 2.5, cycle, warm)
	if reflect.DeepEqual(a, other) {
		t.Error("two seeds gave one arrival list")
	}
	// Every seed's window is one whole cycle: the same number of arrivals.
	inWindow := func(ops []dueOp) (n int) {
		for i, op := range ops {
			if i > 0 && op.at < ops[i-1].at {
				t.Fatalf("arrival list not in due order at %d", i)
			}
			if op.at >= warm {
				n++
			}
		}
		return n
	}
	if na, nb := inWindow(a), inWindow(other); na != nb || na != 3*75 {
		t.Errorf("windows hold %d and %d arrivals, want %d", na, nb, 3*75)
	}
	draw := func(seed int64) []int {
		k := newZipfKeys(seed, 2, 256)
		out := make([]int, 1000)
		for i := range out {
			out[i], _ = k.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("one seed gave two key sequences")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("two seeds gave one key sequence")
	}
}
