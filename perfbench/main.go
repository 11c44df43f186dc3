// Command perfbench is the repository's end-to-end benchmark of the live
// directory. It runs a directoryd binary as a subprocess on seeded
// webgen corpora, drives it over loopback HTTP from one client on one
// keep-alive connection, checks every answer, and prints one JSON result
// line. With -trace 1 it instead runs the same inputs in-process and
// times the benchmark's own calls into each layer.
//
// Usage (run.sh builds both binaries from the checkout first):
//
//	perfbench -directoryd BIN -work DIR -workload grow|serve -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "grow | serve")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced in-process run printing per-layer metrics")
		bin      = flag.String("directoryd", "", "directoryd binary")
		workDir  = flag.String("work", "", "scratch directory for corpora and state")
	)
	flag.Parse()
	if *bin == "" || *workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -directoryd and -work are required")
		os.Exit(2)
	}
	work := filepath.Join(*workDir, fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err, work)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.RemoveAll(work)
		os.Exit(130)
	}()

	// The HTTP client keeps its garbage collector out of the way of the
	// timed requests; directoryd, and the traced run's in-process
	// directory, run with the default.
	if *trace == 0 {
		debug.SetGCPercent(400)
	}
	steal0, total0 := hostCPU()
	r := &run{}
	var (
		metrics map[string]metric
		err     error
	)
	switch {
	case *workload != "grow" && *workload != "serve":
		err = fmt.Errorf("unknown workload %q (grow | serve)", *workload)
	case *trace == 1:
		metrics, err = runTrace(r, *seed, *bin, work)
	case *workload == "grow":
		metrics, err = runGrow(r, *seed, *seconds, *bin, work)
	default:
		metrics, err = runServe(r, *seed, *seconds, *bin, work)
	}
	stopAll()
	if err != nil {
		fatal(err, work)
	}
	os.RemoveAll(work)
	if steal1, total1 := hostCPU(); total1 > total0 {
		fmt.Fprintf(os.Stderr, "perfbench: the host took %.1f%% of CPU time as steal during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Too few samples for a percentile, or no operation timed.
			r.violate("metric %s has no value", name)
			m.Value = 0
			metrics[name] = m
		}
	}
	out, _ := json.Marshal(result{Correct: r.violations == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	fmt.Println(string(out))
	if r.violations > 0 {
		os.Exit(1)
	}
}

func fatal(err error, work string) {
	stopAll()
	os.RemoveAll(work)
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// hostCPU reads the steal and total jiffies of all CPUs from /proc/stat
// (zeros where it is unreadable): time the hypervisor gave to other
// guests is the main source of run-to-run noise on shared hosts.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
