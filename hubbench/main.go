// Command hubbench is the repository's benchmark. It drives the durable
// entity-identification hub through the public calls the entityidd
// daemon makes per request (OpenHub, IngestStream, Insert, Lookup,
// Merged, Checkpoint, Close), checks every answer against a
// from-scratch oracle, and prints one metric per line followed by a
// JSON summary line:
//
//	hubbench --workload serve-k2 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics instead, measured from outside each
// layer by timing calls into its public functions, by deltas of the
// counters the program exports on its metrics registry, and by
// runtime.MemStats deltas. BENCHMARK.json at the repository root lists
// the workloads and metrics; run.sh builds and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are what a user of the hub sees; every workload reports
// each of them for its primary operation (a bulk-load tuple, a point
// read, a restart): the CPU time of a set-up, the process CPU time per
// operation (background snapshots, GC and the hub's own goroutines
// included), and the memory and disk the hub keeps per tuple.
// Throughput and latencies are printed beside them but are not in the
// summary: on a shared virtual machine the host's descheduling moves
// wall-clock figures by more than any bound worth gating on, while
// CPU time is not charged for it.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"heap_bytes_per_tuple", "B"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// perLayer are the traced run's figures, one group per module. Those a
// workload does not exercise read 0.
var perLayer = []metric{
	{"hub.insert.allocs_per_op", "allocs/op"},
	{"hub.insert.bytes_per_op", "B/op"},
	{"hub.stage.prepare_us", "us"},
	{"hub.stage.wal_append_us", "us"},
	{"hub.stage.apply_us", "us"},
	{"hub.stage.cluster_fold_us", "us"},
	{"hub.commit_us", "us"},
	{"hub.pipeline_wait_us", "us"},
	{"hub.pipeline.stalls.admit", "count"},
	{"hub.pipeline.stalls.encode", "count"},
	{"hub.pipeline.stalls.commit", "count"},
	{"hub.read.allocs_per_op", "allocs/op"},
	{"hub.read.bytes_per_op", "B/op"},
	{"hub.lookup_us", "us"},
	{"hub.merged_us", "us"},
	{"hub.open_ms", "ms"},
	{"hub.snapshot.count", "count"},
	{"hub.snapshot.busy_s", "s"},
	{"hub.snapshot.bytes", "B"},
	{"hub.snapshot.sections_reused_ratio", "ratio"},
	{"hub.uniqueness_rejections", "count"},
	{"hub.cluster_merges", "count"},
	{"hub.merges_per_insert", "ratio"},
	{"federate.prepare_us", "us"},
	{"federate.prepare.allocs_per_op", "allocs/op"},
	{"federate.match_ratio", "share"},
	{"federate.bytes_per_pair_tuple", "B"},
	{"match.build_ms", "ms"},
	{"match.build.allocs_per_op", "allocs/op"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_insert", "B"},
	{"wal.fsyncs", "count"},
	{"wal.replay_ms", "ms"},
	{"wal.replay_records", "count"},
	{"store.clusters.hit_rate", "share"},
	{"store.clusters.page_ins", "count"},
	{"store.clusters.spills", "count"},
	{"store.pagein_us", "us"},
	{"store.pairs.page_ins", "count"},
	{"store.pairs.spills", "count"},
	{"relation.bytes_per_tuple", "B"},
	{"bench.trace_overhead", "ratio"},
	{"bench.gen_lateness_p99_us", "us"},
	{"failed_frac", "share"},
}

// Each run sets its workload up at least setupReps times, and more (up
// to maxSetupReps) until the set-ups have used setupCPU of CPU time
// between them, so a short set-up is sampled often enough for its
// median to settle; setup_s is the median of their CPU times.
const (
	setupReps    = 5
	maxSetupReps = 40
	setupCPU     = 2 * time.Second
)

// bench is one run: a workload at a seed, measured for a duration.
type bench struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	trace   bool
	scale   float64
	workdir string
	nDirs   int

	checks
	values map[string]float64
	lines  []string
	// tr records the main goroutine's spans in a traced run (nil
	// otherwise); goroutines the workload starts record into their
	// own tracers and are merged into it.
	tr       *tracer
	nTracers int
}

// checks tallies checked operations and keeps the first few failures.
// Each goroutine that checks answers keeps its own; the run absorbs
// them once the goroutine has ended.
type checks struct {
	attempted, failed int64
	problems          []string
}

// maxProblems bounds the failures a run describes.
const maxProblems = 8

// check counts one checked operation and records a failure.
func (c *checks) check(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.problems) < maxProblems {
			c.problems = append(c.problems, err.Error())
		}
	}
}

// absorb folds in another goroutine's tally.
func (c *checks) absorb(o *checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
	c.problems = c.problems[:min(len(c.problems), maxProblems)]
}

// newTracer returns a tracer for one goroutine of a traced run, nil in
// an untraced run.
func (b *bench) newTracer() *tracer {
	if !b.trace {
		return nil
	}
	b.nTracers++
	return newTracer(20000, int32(b.nTracers)<<24)
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// entities scales a workload's universe (the smoke test runs every
// workload at a tiny scale).
func (b *bench) entities(n int) int {
	return max(int(math.Round(float64(n)*b.scale)), 40)
}

// dir returns a fresh, empty data directory under the run's work
// directory.
func (b *bench) dir(tag string) (string, error) {
	b.nDirs++
	d := filepath.Join(b.workdir, fmt.Sprintf("%s-%d", tag, b.nDirs))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// timeSetup runs a workload's set-up repeatedly, each time from a
// freshly collected heap, and records the median of the process CPU
// time each took as setup_s (CPU time, like cpu_us_per_op, is not
// charged for the time the host takes the machine away). Each
// repetition but the last is torn down, untimed, through the cleanup
// it returns; the last one's state is what the run measures.
func (b *bench) timeSetup(setup func() (cleanup func() error, err error)) error {
	var ts []float64
	var cleanup func() error
	for total := time.Duration(0); len(ts) < setupReps || (total < setupCPU && len(ts) < maxSetupReps); {
		if cleanup != nil {
			if err := cleanup(); err != nil {
				return fmt.Errorf("setup teardown: %w", err)
			}
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		if cleanup, err = setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := cpuTime() - c0
		total += d
		ts = append(ts, d.Seconds())
	}
	b.set("setup_s", median(ts))
	b.note("setup_s %.4f s (median CPU time of %d set-ups, %.4f to %.4f)", median(ts), len(ts), slices.Min(ts), slices.Max(ts))
	return nil
}

// noteOpTiming notes the primary operation's latency median, tail,
// mean and sample count.
func (b *bench) noteOpTiming(label string, h *hist) {
	t := h.timing()
	b.note("%s: p50 %.1fus p%s %.1fus mean %.1fus (n=%d)", label, t.p50/1e3, fmtQ(t.tailQ), t.tail/1e3, t.mean/1e3, t.n)
}

func fmtQ(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", q*100), "0"), ".")
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// result is the summary line the benchmark ends with.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the hubs' data directories and span files")
	flag.Parse()

	wl := workloadByName(*name)
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hubbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, lines, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hubbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hubbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and assembles its report: the
// human-readable lines and the summary.
func run(wl *workload, seed int64, seconds time.Duration, trace bool, scale float64, workdir string) (*result, []string, error) {
	b := &bench{
		wl: wl, seed: seed, seconds: seconds, trace: trace, scale: scale,
		workdir: filepath.Join(workdir, fmt.Sprintf("%s-%d", wl.name, os.Getpid())),
		values:  map[string]float64{},
	}
	if trace {
		b.tr = b.newTracer()
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(b.workdir)
	b.note("workload %s seed %d seconds %g trace %v", wl.name, seed, seconds.Seconds(), trace)
	if err := wl.run(b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	b.set("failed_frac", frac)
	b.note("failed_frac %g share (%d of %d checked operations)", frac, b.failed, b.attempted)
	for _, p := range b.problems {
		b.note("FAILED: %s", p)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		for _, l := range b.tr.summary() {
			b.note("%s", l)
		}
		for layer, self := range b.tr.selfByLayer() {
			b.note("self time %-9s %s", layer, self.Round(time.Microsecond))
		}
		spans := filepath.Join(filepath.Dir(b.workdir), "spans-"+wl.name+".jsonl")
		if err := b.tr.write(spans); err != nil {
			return nil, nil, err
		}
		b.note("spans written to %s (%d kept)", spans, len(b.tr.kept))
	}
	res := &result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricResult{}}
	var names []string
	for _, d := range defs {
		v := b.values[d.name]
		res.Metrics[d.name] = metricResult{Value: v, Unit: d.unit}
		names = append(names, fmt.Sprintf("%-36s %.6g %s", d.name, v, d.unit))
	}
	return res, append(b.lines, names...), nil
}
