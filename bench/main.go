//go:build linux

// Command bench is the repository's benchmark: six workloads over the
// simulated measurement hour and the live authd/resolvd daemons, nine
// end-to-end metrics each, and — from a separate traced run — the cost
// of every layer. See README.md for usage and the metric glossary, and
// ../BENCHMARK.json for the names and bounds a change is judged by.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric. The tables below are the harness's own
// copy of BENCHMARK.json; TestManifest keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds are three times the widest spread (interquartile range over
// median, ten seeds) any workload showed on the 2-core reference host,
// whose speed drifts by a few per cent over tens of seconds, up to the
// 25% the driver allows (p99_us of the live workloads spreads by 8-14%,
// so it has two bounds' room, not three); the counts that do not depend
// on its speed are bounded tightly. README.md has the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"p50_us", "us", "lower", 0.15},
	{"p99_us", "us", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.01},
	{"allocs_per_op", "count", "lower", 0.02},
	{"bytes_per_op", "B", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "dnswire.unpack_ns", "dnswire.pack_ns", "dnswire.name_key_ns", "zone.lookup_ns",
		"authserver.append_query_ns", "resolver.hit_ns", "resolver.miss_ns", "resolver.select_ns",
		"netsim.send_deliver_ns", "netsim.sched_ns", "analysis.on_query_ns")
	add("count", "lower", "dnswire.unpack_allocs", "dnswire.pack_allocs", "dnswire.name_key_allocs",
		"zone.lookup_allocs", "authserver.append_query_allocs", "resolver.hit_allocs", "resolver.miss_allocs",
		"netsim.send_deliver_allocs", "analysis.on_query_allocs",
		"authserver.dropped", "resolver.timeouts", "resolver.servfails", "netsim.events",
		"netsim.packets_dropped", "faults.dropped", "runtime.gc_cycles", "sockets.rx_drops")
	add("count", "higher", "authserver.queries")
	add("B", "lower", "authserver.append_query_bytes", "sockets.rx_queue_peak")
	add("ratio", "lower", "dnswire.cpu_share", "zone.cpu_share", "authserver.cpu_share", "resolver.cpu_share",
		"netsim.cpu_share", "measure.cpu_share", "analysis.cpu_share", "faults.cpu_share", "attacks.cpu_share",
		"sockets.cpu_share", "runtime.gc_bg_share", "analysis.sink_time_share", "resolver.upstream_per_client",
		"attacks.amplification", "loadgen.slo_miss_frac", "trace.overhead_frac")
	add("ratio", "higher", "resolver.cache_hit_ratio", "measure.lanes_speedup", "measure.sim_s_per_wall_s")
	add("ms", "lower", "runtime.gc_pause_ms")
	add("MiB", "lower", "runtime.heap_peak_mb")
	add("us", "lower", "loadgen.lag_p99_us", "loadgen.cpu_us_per_op", "loadgen.tail_us")
	add("%", "higher", "loadgen.tail_pct")
	return defs
}()

// foldLayers are the repository packages the CPU fold reports a share for.
var foldLayers = []string{"dnswire", "zone", "authserver", "resolver", "netsim", "measure", "analysis", "faults", "attacks"}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in the harness's tables") // a harness bug, caught by any run
}

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's output document.
type result struct {
	Workload  string           `json:"workload"`
	Host      hostRecord       `json:"host"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Host: newHostRecord(seed), Metrics: map[string]value{}, PerLayer: map[string]value{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = value{v, unitOf(endToEnd, name)} }

func (r *result) layer(name string, v float64) { r.PerLayer[name] = value{v, unitOf(perLayer, name)} }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fold records the CPU shares of a fold as per-layer metrics.
func (r *result) fold(f cpuFold) {
	for _, l := range foldLayers {
		r.layer(l+".cpu_share", f[l])
	}
	r.layer("sockets.cpu_share", f[layerSockets])
	r.layer("runtime.gc_bg_share", f[layerGC])
	layers := make([]string, 0, len(f))
	for l := range f {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return f[layers[i]] > f[layers[j]] })
	for i, l := range layers {
		layers[i] = fmt.Sprintf("%s %.1f%%", l, 100*f[l])
	}
	r.note("cpu fold: %s", strings.Join(layers, ", "))
}

// print writes the result for a reader: every metric by name with its
// unit, then the notes.
func (r *result) print() {
	fmt.Printf("== %s (seed %d, %g s, %s) ==\n", r.Workload, r.Host.Seed, r.Seconds, r.Host.shape())
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("  correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// driverLine is the last line of a single-workload run: the end-to-end
// metrics of an untraced run, or every per-layer metric of a traced one
// (a layer the workload does not use reports 0).
func (r *result) driverLine(traced bool) string {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	if traced {
		out.Metrics = make(map[string]value, len(perLayer))
		for _, d := range perLayer {
			out.Metrics[d.Name] = value{r.PerLayer[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can do this; validate rejects them first
	}
	return string(b)
}

// validate rejects a result a comparison could not use.
func (r *result) validate() error {
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, m := range []map[string]value{r.Metrics, r.PerLayer} {
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("metric %s is %v", name, v.Value)
			}
		}
	}
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; !ok || v.Value <= 0 {
			return fmt.Errorf("end-to-end metric %s is missing or not positive (%v)", d.Name, v.Value)
		}
	}
	return nil
}

// document is the output of a battery: every workload of one pass.
type document struct {
	Host      hostRecord `json:"host"`
	Workloads []*result  `json:"workloads"`
}

func workloadNames() []string {
	var names []string
	for _, w := range simWorkloads {
		names = append(names, w.name)
	}
	for _, w := range liveWorkloads {
		names = append(names, w.name)
	}
	return names
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	jsonOut  string
	diff     bool
	probes   int
	binDir   string
	child    bool
}

// normalizeArgs lets the boolean -trace also be written "--trace 0" and
// "--trace 1", the form the benchmark driver uses.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); default: all, each in its own process")
	fs.Int64Var(&o.seed, "seed", 2017, "seed for the simulation, every generated name and the shape shuffle")
	fs.Float64Var(&o.seconds, "seconds", 16, "measured seconds per workload")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and out/trace.jsonl instead of the end-to-end metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run the battery this many times and fail if two passes differ by more than a metric's bound")
	fs.StringVar(&o.jsonOut, "json", "", "also write the output document to this file")
	fs.BoolVar(&o.diff, "diff", false, "compare two documents written by -json (old new); run nothing")
	fs.IntVar(&o.probes, "probes", 0, "vantage points per simulated repetition (0 = the workload's own; the paper's hour is 9700)")
	fs.StringVar(&o.binDir, "bin", "", "directory holding built authd and resolvd (default: build them into out/bin)")
	fs.BoolVar(&o.child, "child", false, "internal: run by the battery, so append to out/trace.jsonl")
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError: Parse does not return an error
	if err := run(o, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var selfPid = os.Getpid()

func run(o options, args []string) error {
	if o.diff {
		if len(args) != 2 {
			return errors.New("-diff needs two files: old.json new.json")
		}
		return diffFiles(args[0], args[1])
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	outDir := filepath.Join(benchDir, "out")
	if o.binDir == "" {
		if o.binDir, err = filepath.Abs(filepath.Join(outDir, "bin")); err != nil {
			return err
		}
		build := exec.Command("go", "build", "-o", o.binDir+string(os.PathSeparator), "ritw/cmd/authd", "ritw/cmd/resolvd")
		build.Dir = benchDir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building the daemons: %v\n%s", err, out)
		}
	}
	if o.workload != "" {
		return runOne(o, outDir)
	}
	return runBattery(o, outDir)
}

// findBenchDir locates the benchmark's own directory from the working
// directory: the benchmark is run either from inside it or from the
// repository root.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(b), "module ritw/bench\n") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

// runOne measures one workload in this process and prints it.
func runOne(o options, outDir string) error {
	tmp, err := os.MkdirTemp(mkdir(outDir), "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var res *result
	found := false
	for _, w := range simWorkloads {
		if w.name == o.workload {
			found = true
			res, err = runSim(w, &simEnv{seed: o.seed, seconds: o.seconds, probes: o.probes, setupReps: 9, tr: tr})
		}
	}
	for _, w := range liveWorkloads {
		if w.name == o.workload {
			found = true
			e := &liveEnv{binDir: o.binDir, tmpDir: tmp, seed: o.seed, seconds: o.seconds, setupReps: 9, pin: true, tr: tr}
			if len(hostCPUs) >= 2 && !pin(selfPid, hostCPUs[:len(hostCPUs)-1]) {
				e.pin = false
			}
			res, err = runLive(w, e)
		}
	}
	if !found {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return err
	}
	res.Seconds = o.seconds
	if err := res.validate(); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "trace.jsonl"), o.workload, o.child); err != nil {
			return err
		}
	}
	res.print()
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			return err
		}
	}
	if !o.child {
		fmt.Println(res.driverLine(o.trace))
	}
	if !res.Correct {
		return fmt.Errorf("%s: a correctness check failed (see the notes above)", o.workload)
	}
	return nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // the caller's next step reports a directory that is not there
	return dir
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runBattery runs every workload in a process of its own (so that each
// has its own peak memory and fresh daemons), o.repeat times, and
// compares the passes.
func runBattery(o options, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(mkdir(outDir), "battery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if o.trace {
		_ = os.Remove(filepath.Join(outDir, "trace.jsonl")) // children append to a fresh file
	}
	var passes []*document
	for pass := 0; pass < o.repeat; pass++ {
		doc := &document{Host: newHostRecord(o.seed)}
		doc.Host.Pinned = true
		for _, name := range workloadNames() {
			file := filepath.Join(tmp, name+".json")
			cmd := exec.Command(self, "-child", "-workload", name, "-bin", o.binDir, "-json", file,
				fmt.Sprintf("-seed=%d", o.seed), fmt.Sprintf("-seconds=%g", o.seconds),
				fmt.Sprintf("-trace=%t", o.trace), fmt.Sprintf("-probes=%d", o.probes))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			begin := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			fmt.Printf("  (%s took %.1f s in all)\n", name, time.Since(begin).Seconds())
			var res result
			if err := readJSON(file, &res); err != nil {
				return err
			}
			if strings.HasPrefix(name, "auth-") || strings.HasPrefix(name, "resolv-") {
				doc.Host.Pinned = doc.Host.Pinned && res.Host.Pinned
			}
			doc.Workloads = append(doc.Workloads, &res)
		}
		passes = append(passes, doc)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, passes[len(passes)-1]); err != nil {
			return err
		}
	}
	if !passes[0].Host.Pinned {
		fmt.Println("pinned=false: the daemon under test shared its core, so these numbers are not comparable with pinned ones")
	}
	var bad []string
	for _, later := range passes[1:] {
		diffs, err := compare(passes[0], later, true)
		if err != nil {
			return err
		}
		bad = append(bad, diffs...)
	}
	if len(bad) > 0 {
		return fmt.Errorf("passes of the same build differ by more than the bound:\n  %s", strings.Join(bad, "\n  "))
	}
	if o.repeat > 1 {
		fmt.Printf("%d passes agree within every end-to-end bound\n", o.repeat)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare lists the end-to-end metrics on which b is worse than a by
// more than the metric's bound — or, when symmetric, differs from it by
// more in either direction, which is the test for two passes of one
// build. Documents from hosts of different shape are refused.
func compare(a, b *document, symmetric bool) ([]string, error) {
	if a.Host.shape() != b.Host.shape() {
		return nil, fmt.Errorf("host shapes differ, so the documents are not comparable:\n  %s\n  %s", a.Host.shape(), b.Host.shape())
	}
	byName := make(map[string]*result)
	for _, r := range a.Workloads {
		byName[r.Workload] = r
	}
	var out []string
	for _, rb := range b.Workloads {
		ra, ok := byName[rb.Workload]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if va == 0 {
				continue
			}
			change := (vb - va) / va // positive = grew
			if d.Better == "higher" {
				change = -change // positive = got worse
			}
			if change > d.Bound || (symmetric && -change > d.Bound) {
				out = append(out, fmt.Sprintf("%s %s: %.4f -> %.4f %s (%+.1f%%, bound %.1f%%)",
					rb.Workload, d.Name, va, vb, d.Unit, 100*(vb-va)/va, 100*d.Bound))
			}
		}
	}
	return out, nil
}

func diffFiles(oldPath, newPath string) error {
	var a, b document
	if err := readJSON(oldPath, &a); err != nil {
		return err
	}
	if err := readJSON(newPath, &b); err != nil {
		return err
	}
	worse, err := compare(&a, &b, false)
	if err != nil {
		return err
	}
	if len(worse) > 0 {
		return fmt.Errorf("regressions beyond the bound:\n  %s", strings.Join(worse, "\n  "))
	}
	fmt.Println("no end-to-end metric is worse by more than its bound")
	return nil
}
