// Command nsbench is the repository's benchmark: it stands up the whole
// serving path in one process over loopback — raw-wire streamers →
// media.Server → media.EnhancerPool → EnhancerServer replicas →
// ChunkStore → edge.Edge → edge.Client viewers — drives it with
// pre-encoded, seeded load, checks that what comes out is byte-identical
// to a serial origin's output, and prints every metric by name and unit.
// README.md in this directory is the manual.
//
//	sh cmd/nsbench/run.sh                          # all four workloads, 30 s windows
//	sh cmd/nsbench/run.sh --workload ingest_gpu --seed 7 --seconds 20 --trace 0
//	sh cmd/nsbench/run.sh --workload ingest_cpu --trace 1   # per-layer metrics, layer table, span file
//	sh cmd/nsbench/run.sh --aa 5                   # two sets of five runs per workload, with spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// logw takes everything that is not the result: progress, the layer
// table, warnings. Standard output carries only the result line.
var logw io.Writer = os.Stderr

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload and print the driver's one-line result (default: all four, one report)")
	seed := flag.Int64("seed", 1, "seed of the traffic: where a run enters the arrival cycles, the key sequences, the sampled hashes (the content is a fixed corpus)")
	seconds := flag.Int("seconds", 30, "length of the measured window; warm-up is a tenth of it")
	trace := flag.Int("trace", 0, "1 wraps the three injection points, records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/nsbench-trace-<workload>.jsonl)")
	aa := flag.Int("aa", 0, "A/A mode: run N invocations per set, two sets, and print each metric's medians, gap and spread")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workloadFlag != "" {
		if _, err := newWorkload(*workloadFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*workloadFlag}
	}
	if *aa > 0 {
		if err := runAA(names, *aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ok := true
	var results []*result
	for _, name := range names {
		cfg := config{
			workload: name, seed: *seed,
			window: time.Duration(*seconds) * time.Second, setupReps: 3,
			trace: *trace == 1, traceOut: *traceOut,
		}
		cfg.warmup = warmupFor(cfg.window)
		if cfg.trace && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(".bench_build", "nsbench-trace-"+name+".jsonl")
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsbench:", err)
			os.Exit(1)
		}
		report(logw, res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	var line []byte
	if *workloadFlag != "" {
		line = driverLine(results[0], *trace == 1)
	} else {
		line, _ = json.Marshal(map[string]any{"correct": ok, "workloads": results})
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}

// driverLine is the one JSON object the driver's contract asks for: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one, each with value and unit only.
func driverLine(res *result, traced bool) []byte {
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(src))
	for name, m := range src {
		ms[name] = vu{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	return line
}

// report prints one workload's numbers for a reader.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  window %.0f s  GOMAXPROCS %d  ops attempted %d failed %d  correct %v\n",
		res.Workload, res.Seed, res.Seconds, res.GOMAXPROCS, res.Attempted, res.Failed, res.Correct)
	for _, a := range res.Attempts {
		fmt.Fprintf(w, "   attempt: generator late p99 %.2f ms, %d ops, %d failed, kept %v\n", a.LateP99Ms, a.Ops, a.Failed, a.Kept)
	}
	if res.PerLayer != nil {
		fmt.Fprintln(w, " end to end (traced run: not the official numbers)")
	} else {
		fmt.Fprintln(w, " end to end")
	}
	for _, d := range endToEnd {
		m := res.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-40s %14.4f %-9s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, " per layer")
	for _, d := range perLayer {
		m := res.PerLayer[d.name]
		fmt.Fprintf(w, "  %-40s %14.4f %-9s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, " layer table (self = span minus the union of its children), spans in %s\n", res.TraceFile)
	printLayerTable(w, res.rows)
}
