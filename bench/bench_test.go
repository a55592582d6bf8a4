//go:build linux

package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ritw/internal/dnswire"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has a key the contract does not know: %q", k)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifest keeps BENCHMARK.json and the harness's own tables equal,
// and both inside the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's charset", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var names []string
	for _, w := range m.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, the harness runs %v", names, workloadNames())
	}

	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness's table:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's table:\n%v\n%v", m.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's charset", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// buildDaemons compiles authd and resolvd for the smoke test.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "ritw/cmd/authd", "ritw/cmd/resolvd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	return dir
}

// TestSmoke runs all six workloads at toy scale, unpinned: 200 probes
// for the simulated ones, one-second phases at 1,000 qps for the live
// ones, each once plain and once traced. It checks what a run must
// always deliver, not how fast: every end-to-end metric, positive; every
// name known to BENCHMARK.json; the generator's accounting; spans on
// disk.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	known := map[string]bool{}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		known[d.Name] = true
	}
	verify := func(t *testing.T, res *result, err error, traced bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.validate(); err != nil {
			t.Error(err)
		}
		for n := range res.Metrics {
			if !known[n] {
				t.Errorf("emitted metric %s is not in BENCHMARK.json", n)
			}
		}
		for n := range res.PerLayer {
			if !known[n] {
				t.Errorf("emitted metric %s is not in BENCHMARK.json", n)
			}
		}
		var line struct {
			Metrics map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.driverLine(traced)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(m.EndToEnd)
		if traced {
			want = len(m.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("the driver line carries %d metrics, want %d", len(line.Metrics), want)
		}
		for _, n := range res.Notes {
			t.Log(n)
		}
	}

	for _, w := range simWorkloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "", true: "-traced"}[traced], func(t *testing.T) {
				e := &simEnv{seed: 7, seconds: 1, probes: 200, setupReps: 1}
				if traced {
					e.tr = newTracer()
				}
				res, err := runSim(w, e)
				verify(t, res, err, traced)
				if traced && res.PerLayer["dnswire.cpu_share"].Value <= 0 {
					t.Error("the CPU fold found no dnswire samples in a simulated run")
				}
				if w.adverse && !res.Correct {
					t.Error("sim-adverse failed its correctness checks")
				}
			})
		}
	}

	bin := buildDaemons(t)
	for _, w := range liveWorkloads {
		w.rate = 1000
		w.prefill = min(w.prefill, 500)
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "", true: "-traced"}[traced], func(t *testing.T) {
				e := &liveEnv{binDir: bin, tmpDir: t.TempDir(), seed: 7, seconds: 2, setupReps: 1}
				if traced {
					e.tr = newTracer()
				}
				res, err := runLive(w, e)
				verify(t, res, err, traced)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
				}
				if !traced {
					return
				}
				if res.PerLayer["sockets.cpu_share"].Value <= 0 {
					t.Error("the CPU fold found no socket samples in a live run")
				}
				out := filepath.Join(t.TempDir(), "trace.jsonl")
				if err := e.tr.write(out, w.name, false); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(b)), "\n")
				var root, child span
				if json.Unmarshal([]byte(lines[0]), &root) != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &child) != nil {
					t.Fatal("trace.jsonl is not one JSON span per line")
				}
				if root.Parent != 0 || child.Parent == 0 || child.EndNs < child.StartNs {
					t.Errorf("span tree is malformed: first %+v, last %+v", root, child)
				}
			})
		}
	}
}

// TestFold checks the stack classifier on the cases its rules exist
// for, and that a real CPU profile folds onto the layer doing the work.
func TestFold(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"dnswire", []string{"runtime.mallocgc", "ritw/internal/dnswire.decodeName", "ritw/internal/authserver.(*Engine).AppendQuery", "main.main"}},
		{"sockets", []string{"syscall.Syscall6", "internal/poll.(*FD).ReadFromInet4", "net.(*UDPConn).ReadFromUDP", "ritw/internal/authserver.(*Server).serveUDP"}},
		{"harness", []string{"syscall.Syscall", "net.(*UDPConn).Write", "main.(*loadgen).send", "main.main"}},
		{"harness", []string{"main.(*simSink).str", "main.(*simSink).OnAuth", "ritw/internal/measure.instrumentedEmit.func2"}},
		{"analysis", []string{"ritw/internal/analysis.(*Aggregator).OnQuery", "main.(*simSink).OnQuery", "ritw/internal/measure.instrumentedEmit.func1"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime", []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}

	q, err := dnswire.NewQuery(1, dnswire.MustParseName("a.rather.long.name.example.nl"), dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	fold, err := profileCPU(func() {
		for i := 0; i < 400000; i++ {
			_, _ = dnswire.Unpack(q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under the race detector most samples land in its own runtime
	// calls, whose stacks do not reach back into the caller; the rest
	// must still all be dnswire's.
	for layer, share := range fold {
		if layer != "dnswire" && layer != layerRuntime && layer != layerGC && share > 0 {
			t.Errorf("a loop over dnswire.Unpack charged %.2f to %s", share, layer)
		}
	}
	if fold["dnswire"] < 0.25 {
		t.Errorf("a loop over dnswire.Unpack folded to %v", fold)
	}
}

// TestCompare checks the two rules of a comparison: documents from
// hosts of different shape are refused, and a metric counts as a
// regression only beyond its bound and only in its worse direction.
func TestCompare(t *testing.T) {
	doc := func(qps, p99 float64, cores int) *document {
		r := newResult("auth-wild", 1)
		r.set("ops_per_s", qps)
		r.set("p99_us", p99)
		return &document{Host: hostRecord{Cores: cores}, Workloads: []*result{r}}
	}
	if _, err := compare(doc(100, 100, 2), doc(100, 100, 4), false); err == nil {
		t.Error("documents from a 2-core and a 4-core host were compared")
	}
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	qpsEdge, p99Edge := 100*(1-bound("ops_per_s")), 100*(1+bound("p99_us"))
	for _, c := range []struct {
		qps, p99  float64
		symmetric bool
		want      int
	}{
		{100, 100, false, 0},
		{qpsEdge + 1, p99Edge - 1, false, 0}, // inside both bounds
		{qpsEdge - 1, 100, false, 1},         // throughput fell by more than its bound
		{100, p99Edge + 1, false, 1},         // p99 rose by more than its bound
		{200, 50, false, 0},                  // better in both: no regression
		{200, 50, true, 2},                   // but two passes of one build must not differ so
	} {
		got, err := compare(doc(100, 100, 2), doc(c.qps, c.p99, 2), c.symmetric)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Errorf("qps %v p99 %v symmetric=%t: %d findings %v, want %d", c.qps, c.p99, c.symmetric, len(got), got, c.want)
		}
	}
}
