package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one metric and its unit. The tables below must match
// BENCHMARK.json (TestMetricTablesMatchManifest pins it).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run (--trace 0). Every workload
// reports every one; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"optimal_ratio", "ratio"},
	{"triplets", "count"},
	{"test_length", "cycles"},
	{"cover_cost", "count"},
	{"fault_coverage_pct", "%"},
}

// perLayer are the metrics of a traced run (--trace 1), in pipeline order.
// A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"bench.busy_ms", "ms"},
	{"fault.busy_ms", "ms"},
	{"atpg.busy_ms", "ms"},
	{"atpg.calls", "count"},
	{"atpg.podem_targets", "count"},
	{"atpg.podem_aborted", "count"},
	{"atpg.patterns", "count"},
	{"atpg.gate_evals", "count"},
	{"dmatrix.busy_ms", "ms"},
	{"dmatrix.calls", "count"},
	{"dmatrix.rows", "count"},
	{"dmatrix.patterns_simulated", "count"},
	{"dmatrix.gate_evals", "count"},
	{"dmatrix.gate_evals_per_s", "1/s"},
	{"dmatrix.ones", "count"},
	{"setcover.reduce_ms", "ms"},
	{"setcover.reduce_calls", "count"},
	{"setcover.residual_rows", "count"},
	{"setcover.residual_cols", "count"},
	{"setcover.dominated_rows", "count"},
	{"setcover.exact_ms", "ms"},
	{"setcover.exact_calls", "count"},
	{"setcover.nodes", "count"},
	{"setcover.nodes_per_s", "1/s"},
	{"setcover.truncated", "count"},
	{"setcover.root_gap", "ratio"},
	{"core.solve_matrix_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"engine.solve_ms", "ms"},
	{"engine.overhead_ms", "ms"},
	{"engine.prepare_builds", "count"},
	{"engine.prepare_hits", "count"},
	{"engine.matrix_builds", "count"},
	{"engine.matrix_hits", "count"},
	{"server.rtt_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.resp_bytes", "bytes"},
	{"server.refused", "count"},
	{"server.errors", "count"},
	{"trace.overhead_pct", "%"},
}

// pinned lists the metrics that must repeat exactly across runs of one
// seed (same binary): effort counters and answer quality. Timings are
// excluded. Workloads pin the subset they report deterministically.
var pinnedTimed = []string{"triplets", "test_length", "cover_cost", "fault_coverage_pct", "optimal_ratio"}

// value is one measured metric: its value, the number of samples it
// summarizes, and a note on how it was derived.
type value struct {
	v    float64
	n    int
	note string
}

// report collects one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	values    map[string]value
	pins      map[string]float64 // deterministic values, checked across runs
	details   []string           // extra lines for the reader, e.g. per-pass times
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]value{}, pins: map[string]float64{}}
}

func (r *report) set(name string, v float64, n int, note string) {
	r.values[name] = value{v: v, n: n, note: note}
}

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// series records a sequence of samples as a detail line.
func (r *report) series(name string, xs []float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", name)
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	r.details = append(r.details, b.String())
}

// pin records a value that must be identical on every run of this seed.
func (r *report) pin(name string, v float64) { r.pins[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human-readable metric lines and then the one-line JSON
// result. It reports whether the run was correct.
func (r *report) write(w io.Writer, defs []metricDef) bool {
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			r.fail("internal: metric %s not reported", d.name)
			continue
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			r.fail("internal: metric %s is %v", d.name, v.v)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v.v, Unit: d.unit}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-6d %s\n", d.name, v.v, d.unit, v.n, v.note)
	}
	for _, d := range r.details {
		fmt.Fprintf(w, "  %s\n", d)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	out.Attempted = max(out.Attempted, 1)
	out.Failed = r.failed
	out.Correct = r.failed == 0
	line, _ := json.Marshal(out) // infallible: plain structs of floats and strings
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct
}

// envLine records the hardware and toolchain every result was measured on.
func envLine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// minBeyond is the number of samples a reported percentile must leave
// above it; a percentile with fewer is an extreme value, not a tail.
const minBeyond = 10

// tail returns the highest percentile up to p99 that leaves at least
// minBeyond samples above it, falling back to the median when even that
// has fewer, together with the percentile used.
func tail(xs []float64) (v, pct float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := min(0.99, 1-float64(minBeyond)/float64(len(s)))
	if q < 0.5 {
		q = 0.5
	}
	return quantile(s, q), 100 * q
}

// setLatency reports p50_ms and p99_ms over the given samples (ms).
func (r *report) setLatency(ms []float64, unit string) {
	v, pct := tail(ms)
	r.set("p50_ms", median(ms), len(ms), "median "+unit)
	r.set("p99_ms", v, len(ms), fmt.Sprintf("p%.1f %s (>=%d samples beyond it, else median)", pct, unit, minBeyond))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// checkPins compares this run's deterministic values with those recorded
// by earlier runs of the same binary, workload, mode and seed. A mismatch
// is a failure: these values may not depend on timing. Only a run without
// failures records them, so a broken first run never pins wrong values.
func (r *report) checkPins(dir, binID string, seed int64, traced bool) {
	if len(r.pins) == 0 {
		return
	}
	mode := "timed"
	if traced {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%s.json", r.workload, mode, seed, binID))
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err != nil {
			r.fail("pins: %s: %v", path, err)
			return
		}
		var diff []string
		for k, v := range r.pins {
			if pv, ok := prev[k]; ok && pv != v {
				diff = append(diff, fmt.Sprintf("%s %v != %v", k, v, pv))
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			r.fail("deterministic values differ from an earlier run of this seed: %s", strings.Join(diff, ", "))
		}
		return
	case !errors.Is(err, fs.ErrNotExist):
		r.fail("pins: %v", err)
		return
	case r.failed > 0:
		return
	}
	raw, _ = json.MarshalIndent(r.pins, "", "  ") // infallible: map of floats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.fail("pins: %v", err)
		return
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		r.fail("pins: %v", err)
	}
}
