// Command fieldbench is the repository's benchmark: it drives the product
// attribute extraction system from outside, through the packages its
// commands use, over one full field cycle — bootstrap a model on an on-disk
// corpus, append new pages and retrain incrementally, then serve held-out
// pages through a two-backend fleet — and checks every output it measures.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash fieldbench/run.sh --workload bootstrap-crf --seed 1 --seconds 6 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the run's span tree is written under
// .bench_build/traces. The line before it, prefixed "info ", records the
// host, seed, commit, output digests and percentile sample counts. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 6, "length of the serving window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes the span tree")
	flag.StringVar(&o.root, "root", ".", "checkout root; everything the run writes goes under ROOT/.bench_build")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	out, err := run(o)
	if err != nil {
		fatal(err)
	}
	info, _ := json.Marshal(out.info)
	fmt.Printf("info %s\n", info)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fieldbench:", err)
	os.Exit(2)
}
