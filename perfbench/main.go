// Command perfbench is the repository benchmark. It runs one named sweep
// workload through the library's public entry points (engine.Run, and
// sweep.RunSharded against an in-process gatherd), checks the outputs, and
// prints one JSON result line as the last line of standard output:
//
//	perfbench --workload e13-cross --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (metrics.go, endToEnd) as
// medians over repeated executions of the grid, scaled to a reference host
// speed by a probe timed around each execution (host.go). With --trace 1 it reports
// per-layer metrics (perLayer) from a separate traced execution whose timing
// wrappers sit in this package, around the calls into each module; nothing
// inside the program is instrumented. The workloads are closed loops and
// derive every cell seed from --seed, so a claim can be re-checked on a seed
// not used while the change was written. run.sh builds and runs it from a
// repository checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (e5-seq, e13-cross, coord-sweep)")
	seed := flag.Int64("seed", 1, "base seed every cell seed derives from")
	seconds := flag.Float64("seconds", 10, "how long an untraced run keeps re-executing the grid")
	traced := flag.Int("trace", 0, "1 runs the traced execution and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans and view corpus to")
	flag.Parse()

	sp, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{base: *seed, seconds: time.Duration(*seconds * float64(time.Second)), out: *out}
	var rep report
	if *traced == 1 {
		rep, err = traceRun(sp, cfg)
	} else {
		rep, err = measure(sp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench:", errIncorrect)
		os.Exit(1)
	}
}
