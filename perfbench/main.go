// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload through the public API of the mcf0 library and the
// f0d server, checks the outputs, and prints every metric by name with
// its unit; the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload ingest|serve|count --seed N --seconds S --trace 0|1
//
// Workloads (each does a fixed amount of work, sized from --seconds by a
// nominal rate measured on a 2-core x86-64 VM, so equal flags do equal
// work and a traced run can be compared op for op with an untraced one):
//
//   - ingest: one producer streams 128-element batches of fresh keys into
//     mcf0.F0.AddBatch (bucketing sketch, paper constants, default
//     Parallelism). The sketch hot path with nothing else on it.
//   - serve: f0d assembled in process (server.New, Server.Serve on a
//     loopback listener), driven closed loop by two loadgen.HTTPTarget
//     clients with the 90/10 ingest/estimate mix, Zipf 1.2 over 10^5 hot
//     keys. HTTP, JSON, auth, metrics, state and the replica merge.
//   - count: two callers count a seeded suite of planted 3-CNFs
//     (mcf0.CountCNFClauses, bucketing) and random DNFs
//     (mcf0.CountDNFTerms, minimum), one formula each at a time with
//     Parallelism 1. The counting half of the paper; it shares no layer
//     with the other two.
//
// With --trace 0 the run reports the end-to-end metrics listed in
// BENCHMARK.json. With --trace 1 it runs the workload untraced, then again
// with spans recorded around every call into each layer, and reports the
// per-layer metrics; the spans go to .bench_build/perfbench/. Both modes
// fail (exit 1) when an output is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its op and check tallies.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// add records a metric and prints it with a note, such as its sample
// count.
func (r *report) add(name string, value float64, unit, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("%-34s %14.6g %-6s %s\n", name, value, unit, note)
}

// addTail reports as tail_ms the highest percentile of lat (ms, sorted
// ascending) that keeps minBeyond samples above it.
func (r *report) addTail(lat []float64, op string) {
	p := tailPercentile(len(lat))
	r.add("tail_ms", percentile(lat, p), "ms",
		fmt.Sprintf("(%s p%g from the untraced pass, n=%d, %d beyond)", op, p, len(lat), len(lat)-rank(len(lat), p)))
}

// ops tallies measured operations.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one output check as an attempted operation, and as a
// failed one when ok is false.
func (r *report) check(what string, ok bool, detail string) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAILED"
	}
	fmt.Printf("check %-48s %-6s %s\n", what, status, detail)
}

// successRatio is the share of attempted operations and checks that
// succeeded.
func (r *report) successRatio() float64 {
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
}

type workloadFunc func(cfg runConfig, r *report) (*tracer, error)

var workloads = map[string]workloadFunc{
	"ingest": runIngest,
	"serve":  runServe,
	"count":  runCount,
}

// benchSpec is the part of BENCHMARK.json the run checks itself against.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest, serve or count")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; sets the amount of work")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest, serve or count)", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		workload, seed, seconds, trace, runtime.GOMAXPROCS(0))

	warmCPU(cpuWarmup)
	r := newReport()
	tr, err := fn(runConfig{seed: seed, seconds: seconds, trace: trace == 1}, r)
	if err != nil {
		return err
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "perfbench", "spans-"+workload+"-"+strconv.FormatUint(seed, 10)+".jsonl")
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}

	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	} else {
		r.add("success_ratio", r.successRatio(), "ratio",
			fmt.Sprintf("(%d of %d ops and checks)", r.attempted-r.failed, r.attempted))
	}
	out := make(map[string]metric, len(want))
	var problems []string
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && trace == 1:
			// A layer this workload never calls: its work is zero.
			got = metric{Value: 0, Unit: m.Unit}
			fmt.Printf("%-34s %14d %-6s (layer not on this workload's path)\n", m.Name, 0, m.Unit)
		case !ok:
			problems = append(problems, m.Name+" not measured")
		case got.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s measured in %s, listed in %s", m.Name, got.Unit, m.Unit))
		}
		out[m.Name] = got
	}
	for name := range r.metrics {
		if _, ok := out[name]; !ok {
			problems = append(problems, name+" measured but not listed in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%d of %d operations and checks failed", r.failed, r.attempted)
	}
	return nil
}

// cpuWarmup is how long every core is kept busy before a workload starts:
// on the 2-core VM the benchmark was tuned on, cores run at half speed for
// about the first second of load after an idle spell.
const cpuWarmup = 1500 * time.Millisecond

// warmCPU spins one goroutine per core for d and waits for them.
func warmCPU(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spinUntil(func() bool { return !time.Now().Before(deadline) })
		}()
	}
	wg.Wait()
}

// busyOthers keeps every core but one busy until the returned function is
// called, which waits for the spinners to end. On the VM the benchmark
// was tuned on, a run that wakes an idle core pays a host-dependent
// wake-up cost; with the other cores busy, no core is idle to wake.
func busyOthers() (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spinUntil(done.Load)
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// spinUntil does arithmetic until stop returns true.
func spinUntil(stop func() bool) {
	x := uint64(1)
	for !stop() {
		for range 1000 {
			x = mix64(x)
		}
	}
	spinSink.Add(x)
}

// spinSink keeps warmCPU's arithmetic from being optimised away.
var spinSink atomic.Uint64

// peakRSSMB returns the process's peak resident set (ru_maxrss, which
// Linux reports in KiB) in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// mix64 is the splitmix64 finaliser, a bijection on uint64 used to derive
// inputs and sketch seeds from the run's seed.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sketchSeed derives a sketch's hash seed from the run's seed and a salt
// naming its use; it is never 0, which mcf0 would replace by a default.
func sketchSeed(seed, salt uint64) uint64 { return mix64(seed^mix64(salt)) | 1 }
