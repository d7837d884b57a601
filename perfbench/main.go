// Command perfbench is the repository benchmark. It runs one of three
// workloads against the reseeding pipeline — cold (first answers on unseen
// circuits), serve (reseedd's warm HTTP path) and cover (the exact
// covering solver on the graded corpus) — checks every answer, and prints
// the workload's metrics. README.md says what each workload exercises and
// how to read the results.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
//
// --workload all (the default) runs every workload, each in its own
// process. With --trace 0 a run reports the end-to-end metrics, measured
// untraced; with --trace 1 it reports the per-layer metrics and writes its
// spans under .bench_build/spans. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// status is non-zero when any check failed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// Each run performs its set-up several times and reports the median as
// setup_s; short set-ups repeat more, so host noise averages out.
const (
	coldSetups  = 40  // warm-up cold solves, ≈25-40 ms each
	serveSetups = 5   // boots with prewarm, ≈1 s each
	coverSetups = 100 // corpus loads, ≈2-4 ms each
)

var workloads = []string{"cold", "serve", "cover"}

// Where runs leave their files, relative to the repository root run.sh
// starts them in: the traced runs' span files, and the deterministic
// values recorded per build and seed that later runs are checked against.
const (
	spansDir = ".bench_build/spans"
	pinsDir  = ".bench_build/pins"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "all", "cold, serve, cover, or all (each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed one")
	read := fs.String("read", "", "print the per-span-name calls, total and self times of this span file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *read != "" {
		if err := readSpans(*read, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	cfg.trace = trace == 1
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	return runOne(cfg, stdout)
}

func runOne(cfg config, stdout io.Writer) int {
	ctx := context.Background()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, envLine())
	var (
		r   *report
		rec *recorder
	)
	switch cfg.workload {
	case "cold":
		if cfg.trace {
			r, rec = traceCold(ctx, cfg)
		} else {
			r = runCold(ctx, cfg)
		}
	case "serve":
		if cfg.trace {
			r, rec = traceServe(ctx, cfg)
		} else {
			r = runServe(ctx, cfg)
		}
	case "cover":
		if cfg.trace {
			r, rec = traceCover(ctx, cfg)
		} else {
			r = runCover(ctx, cfg)
		}
	default:
		fmt.Fprintf(stdout, "unknown workload %q (want cold, serve, cover or all)\n", cfg.workload)
		return 2
	}
	defs := endToEnd
	if rec != nil {
		defs = perLayer
		if path, err := rec.write(spansDir, cfg.workload, cfg.seed); err != nil {
			r.fail("%v", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	if r.attempted < 1 {
		r.fail("no operation attempted")
	}
	if id, err := binaryID(); err != nil {
		r.fail("pins: %v", err)
	} else {
		r.checkPins(pinsDir, id, cfg.seed, cfg.trace)
	}
	if !r.write(stdout, defs) {
		return 1
	}
	return 0
}

// binaryID identifies the running build, so recorded pins never compare
// two different programs.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6]), nil
}

// runAll runs every workload in a child process of its own, so each
// process's peak RSS is its workload's, and prints each child's report
// followed by one combined JSON line.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	combined := map[string]json.RawMessage{}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(b2i(cfg.trace)))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w, err)
			status = 1
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if json.Valid(line) && bytes.HasPrefix(line, []byte("{")) {
				last = append([]byte(nil), line...)
				continue
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
		if last != nil {
			combined[w] = last
		}
	}
	line, _ := json.Marshal(combined) // infallible: map of valid JSON values
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}
