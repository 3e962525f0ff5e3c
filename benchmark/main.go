// Command benchmark is the repository benchmark: two workloads driven
// through malgraph's public API from one process and one driving
// goroutine, closed loop (the next batch is sent only after the previous
// one is acknowledged, as `malgraphctl push` does). See workloads.go for
// why each workload exists and which layers it loads.
//
//	bash benchmark/run.sh --workload <paper-build|durable-stream|all> \
//	    [--seed 20240404] [--seconds 10] [--trace 0|1]
//
// It prints every metric by name with its unit and, as its last line, one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a separate traced run
// with --trace 1. Any failed correctness gate fails the run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "paper-build, durable-stream or all")
	seed := fs.Uint64("seed", 20240404, "world seed")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *seed == 0 {
		*seed = 20240404 // the pipeline's own default for a zero seed
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{seed: *seed, workdir: dir, led: newLedger()}
	if *trace == 1 {
		r.tr = newTracer()
		r.walFS = newCountingFS("wal", "", r.tr)
		r.storeFS = newCountingFS("castore", "malgraph.checkpoint", r.tr)
		r.view = &countingView{tr: r.tr}
	}
	printStamp(w, *seed, *trace)
	if err := w.run(r, time.Duration(*seconds)*time.Second); err != nil {
		return err
	}

	defs, spans := endToEnd, []Span(nil)
	if r.tr != nil {
		defs, spans = perLayer, r.tr.Spans()
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	res := result{Correct: true, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: d.value(r, spans), Unit: d.unit}
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL " + c.msg
			res.Correct = false
		}
		fmt.Printf("check %s: %s\n", c.name, status)
	}
	for _, k := range r.led.kinds {
		fmt.Printf("ops %s: %d attempted, %d failed", k, r.led.att[k], r.led.fail[k])
		if msg, ok := r.led.first[k]; ok {
			fmt.Printf(" (first: %s)", msg)
		}
		fmt.Println()
	}
	if r.crawlDiffs > 0 {
		// A program defect left standing: the set-up crawl is not
		// deterministic (see run.inputReports). Not counted as a failed
		// operation, since which set-ups it hits varies from run to run.
		fmt.Printf("note: %d of %d set-up crawls fetched another page count than a single fetcher (%d)\n",
			r.crawlDiffs, len(r.setup), r.crawlPages)
	}
	printSamples(r)
	for _, d := range defs {
		fmt.Printf("metric %s %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	res.Attempted, res.Failed = r.led.totals()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

func printSamples(r *run) {
	for _, s := range []struct {
		name string
		xs   []float64
	}{
		{"setup_s", r.setup}, {"build_s", r.builds}, {"ack_ms", r.ack}, {"fresh_ms", r.fresh},
		{"read_us", r.readUS}, {"checkpoint_ms", r.checkpoint}, {"recovery_s", r.recovery},
	} {
		fmt.Printf("samples %s: %s\n", s.name, describe(s.xs))
	}
}

// printStamp records where and how the figures were measured.
func printStamp(w workload, seed uint64, trace int) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	stamp := map[string]any{
		"workload": w.name, "seed": seed, "scale": w.scale, "trace": trace,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpuModel(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rev": rev,
	}
	b, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload in its own process (so each reports its own
// peak RSS), relays their output, and ends with one combined result whose
// metrics are named <workload>/<metric>.
func runAll(seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		os.Stdout.Write(out.Bytes())
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("workload %s: %v (no result line)", w.name, runErr)
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}
