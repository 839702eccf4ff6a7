// Command perfbench is Choreo's repository benchmark. It drives one
// workload through the program's public packages for a fixed time,
// checks every output it can, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 they are the per-layer ones, taken from spans
// the benchmark records around its own calls into each layer. See
// README.md for the workloads, the metric definitions and how to run it.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation's workload inputs.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// outDir receives the span log of a traced run.
	outDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for the human
// table; the JSON object is keyed by name.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) add(name string, value float64, unit string) {
	if _, dup := s.m[name]; !dup {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: value, Unit: unit}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	// problems lists every failed correctness check; empty means correct.
	problems  []string
	attempted int64
	failed    int64
	metrics   *metricSet
	// notes are extra facts printed with the record, such as sample
	// counts behind a percentile.
	notes map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(key string, v any) {
	if o.notes == nil {
		o.notes = map[string]any{}
	}
	o.notes[key] = v
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"snapshot-sweep": runSnapshotSweep,
	"sequence-sweep": runSequenceSweep,
	"serve-mixed":    runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 10, "how long the measured phase runs")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fl.String("out", ".bench_build", "directory for the traced run's span log")
	digests := fl.Int("record-digests", 0, "print digests.go with the sweep stream digests of seeds 0..n-1, then exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *digests > 0 {
		if err := writeDigests(stdout, *digests); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: *out}
	stealBefore, totalBefore := cpuTicks()
	o, err := drive(cfg)
	stealAfter, totalAfter := cpuTicks()
	if err == nil {
		if cfg.trace {
			err = complete(o.metrics, perLayer, true)
		} else {
			err = complete(o.metrics, endToEnd, false)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, n := range o.metrics.names {
		m := o.metrics.m[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	rec := record(*name, cfg, os.Args)
	// On a shared host the share of CPU time the hypervisor gave to
	// other guests during the run explains an outlying figure.
	rec["host_steal_share"] = ratio(stealAfter-stealBefore, totalAfter-totalBefore)
	for k, v := range o.notes {
		rec[k] = v
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding record: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, o.metrics.m})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", result)
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// record describes where and how a result was produced, so any number
// can be re-run: toolchain, source revision, parallelism, host CPU,
// seed and the exact command line.
func record(workload string, cfg runConfig, argv []string) map[string]any {
	rec := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"command":    argv,
		"commit":     vcsRevision(),
	}
	if sum, err := sourceDigest("."); err == nil {
		rec["source_sha256"] = sum
	}
	return rec
}

// vcsRevision is the commit the binary was built from, when the build
// saw a version-control checkout.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, so a
// record identifies the code even where no commit is known.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks reads the host-wide steal and total CPU ticks from
// /proc/stat, both 0 where it is unavailable.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set size in MB (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
