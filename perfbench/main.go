// Command perfbench is the repository's end-to-end benchmark. One run takes a
// seeded Barton-like deployment through its life cycle and measures each
// stage from outside, through the public functions of each layer:
//
//   - set-up: generate the data, save and reload the database image,
//     recommend views under saturation, maintain them asynchronously and
//     start the SPARQL-over-HTTP server on loopback (repeated, median kept);
//   - select: offline view selection under post-reformulation, DFS-AVF-STV
//     and GSTR-AVF-STV to fixed state budgets (the paper's Section 6);
//   - serve: read-only SPARQL over HTTP, closed loop, two connections;
//   - churn: an open-loop writer deleting and re-inserting view-feeding
//     triples beside one closed-loop HTTP reader.
//
// Every answer is checked against an oracle that bypasses the views and the
// plan cache (engine.EvalQuery over a saturated copy of the data). With
// -trace 1 the run records spans around the layer calls it makes and prints
// per-layer metrics instead of the end-to-end ones.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Run it through run.sh,
// which builds it from source:
//
//	bash perfbench/run.sh --workload fits --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// workloadSpec is one named input family. Both families run every stage;
// they differ in how much the workload's queries share and in whether the
// serve mix fits the serving plan cache (256 entries).
type workloadSpec struct {
	name string
	// high selects high-commonality queries (workload.High) for both the
	// selection workloads and the served workload.
	high bool
	// rotations is the number of constant-rotated copies of each served
	// workload query in the serve mix. The copies share their query's lifted
	// shape, so they run through cached store templates; their texts are
	// distinct statement-cache keys.
	rotations int
}

var workloads = []workloadSpec{
	{name: "fits", high: true, rotations: 3},
	{name: "spills", high: false, rotations: 40},
}

type config struct {
	spec    workloadSpec
	seed    int64
	seconds int
	trace   bool
	commit  string
	out     string
}

func main() {
	var (
		name    = flag.String("workload", "fits", "workload to run: fits|spills")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 30, "measured seconds, split evenly between serve and churn")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
		commit  = flag.String("commit", "unknown", "commit of the code under test, printed with every record")
		out     = flag.String("out", ".bench_build/perfbench", "directory span dumps are written to")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit, out: *out}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.spec, found = w, true
		}
	}
	switch {
	case !found:
		fatalf("unknown workload %q", *name)
	case *seconds < 8:
		fatalf("-seconds must be at least 8")
	case *trace != 0 && *trace != 1:
		fatalf("-trace must be 0 or 1")
	}
	rep := &report{cfg: cfg}
	if err := run(cfg, rep); err != nil {
		fatalf("%v", err)
	}
	rep.print(os.Stdout)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// report collects the run's operations and metrics.
type report struct {
	cfg       config
	attempted int
	failed    int
	failures  []string
	metrics   []metric
}

type metric struct {
	name, unit string
	value      float64
	detail     string
	printOnly  bool // printed as a record, left out of the JSON result
}

// op counts one checked operation; a non-empty problem marks it failed.
func (r *report) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, problem)
		}
	}
}

func (r *report) add(name, unit string, value float64, detail string) {
	if math.IsNaN(value) {
		value, detail = 0, "no samples; "+detail
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, detail: detail})
}

// show records a figure that is printed but kept out of the JSON result,
// for figures too unsteady on a shared two-core host to gate a change on.
func (r *report) show(name, unit string, value float64, detail string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, detail: detail, printOnly: true})
}

// print writes one record line per metric, stamped with the environment,
// then the JSON result as the last line.
func (r *report) print(w *os.File) {
	stamp := fmt.Sprintf("workload=%s seed=%d trace=%t go=%s gomaxprocs=%d nproc=%d commit=%s",
		r.cfg.spec.name, r.cfg.seed, r.cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), r.cfg.commit)
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s %s\n", stamp, f)
	}
	fmt.Fprintf(w, "record %s metric=failed_frac value=%.6f unit=ratio in_result=false detail=%q\n", stamp,
		float64(r.failed)/float64(max(r.attempted, 1)), fmt.Sprintf("failed=%d attempted=%d", r.failed, r.attempted))
	out := map[string]map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "record %s metric=%s value=%g unit=%s in_result=%t detail=%q\n", stamp, m.name, m.value, m.unit, !m.printOnly, m.detail)
		if !m.printOnly {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Fprintln(w, strings.TrimSpace(string(res)))
}
