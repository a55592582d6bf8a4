//go:build linux

package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ritw/internal/dnswire"
	"ritw/internal/measure"
	"ritw/internal/stats"
)

// liveWorkload is one traffic mix against the real daemons.
type liveWorkload struct {
	name string
	// rate is the open-loop phase's fixed rate, chosen to keep the
	// daemon's core a fifth to a third busy.
	rate float64
	// resolver puts resolvd in front of two authd; otherwise the
	// daemon under test is a single authd.
	resolver bool
	// mixed serves the generated zone and sends every answer shape.
	mixed bool
	// hot is the number of names resolv-hit re-asks.
	hot int
	// prefill is the number of unique names sent, untimed, before the
	// timed phases: enough to fill the resolver's cache to its
	// 100,000-entry cap, so that both phases run in the steady state
	// where insertion evicts and memory no longer grows.
	prefill int
}

var liveWorkloads = []liveWorkload{
	{name: "auth-wild", rate: 10000},
	{name: "auth-mixed", rate: 10000, mixed: true},
	{name: "resolv-hit", rate: 4000, resolver: true, hot: 256},
	{name: "resolv-miss", rate: 4000, resolver: true},
}

const (
	closedWindow = 64   // requests outstanding in the saturation phase
	warmupN      = 2000 // fully validated requests before any timing
	warmupWindow = 16
	sloNs        = 5e6 // the latency limit behind loadgen.slo_miss_frac
)

// packets builds the workload's packet pool and shape table.
func (w liveWorkload) packets(seed int64) ([]packet, []shape) {
	switch {
	case w.mixed:
		return mixedPackets(seed)
	case w.resolver:
		return wildPackets(seed, w.hot, "DUB", "FRA")
	default:
		return wildPackets(seed, 0, "FRA")
	}
}

// daemon is one authd or resolvd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	name    string
	addr    string // where it serves DNS
	metrics string // its -metrics-addr, "" when off
	stderr  bytes.Buffer
}

// stop asks the daemon to exit and waits for it; a daemon that ignores
// SIGTERM for three seconds is killed.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// scrape reads the daemon's text metrics endpoint into name -> value.
func (d *daemon) scrape() map[string]float64 {
	out := make(map[string]float64)
	if d == nil || d.metrics == "" {
		return out
	}
	client := http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
	}
	return out
}

// freePort finds a port free for both UDP and TCP on ip (authd binds
// both). The port is released before the daemon binds it, which leaves
// a window another process could take it in; a daemon that then fails
// to bind fails the readiness probe and the run.
func freePort(ip string) (int, error) {
	for tries := 0; tries < 20; tries++ {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.ParseIP(ip)})
		if err != nil {
			return 0, err
		}
		port := u.LocalAddr().(*net.UDPAddr).Port
		t, err := net.Listen("tcp4", net.JoinHostPort(ip, strconv.Itoa(port)))
		u.Close()
		if err != nil {
			continue
		}
		t.Close()
		return port, nil
	}
	return 0, fmt.Errorf("no port free for UDP and TCP on %s", ip)
}

// liveEnv is what a live run needs from the command line.
type liveEnv struct {
	binDir    string
	tmpDir    string
	seed      int64
	seconds   float64
	setupReps int
	pin       bool
	tr        *tracer // nil unless -trace
}

// topology is the set of processes one live workload runs against.
type topology struct {
	dut    *daemon
	others []*daemon
	gen    *loadgen
	pinned bool
}

func (t *topology) stop() {
	if t == nil {
		return
	}
	if t.gen != nil {
		t.gen.Close()
	}
	t.dut.stop()
	for _, d := range t.others {
		d.stop()
	}
}

// spawn starts one daemon on ip with a fresh port (and a metrics port
// when tracing) and pins it to cpus if asked.
func (e *liveEnv) spawn(name, ip string, cpus []int, args ...string) (*daemon, error) {
	port, err := freePort(ip)
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, addr: net.JoinHostPort(ip, strconv.Itoa(port))}
	args = append([]string{"-addr", d.addr}, args...)
	if e.tr != nil {
		mport, err := freePort("127.0.0.1")
		if err != nil {
			return nil, err
		}
		d.metrics = net.JoinHostPort("127.0.0.1", strconv.Itoa(mport))
		args = append(args, "-metrics-addr", d.metrics)
	}
	d.cmd = exec.Command(filepath.Join(e.binDir, strings.Fields(name)[0]), args...)
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive a harness that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if len(cpus) == 1 {
		// It sized its scheduler from the mask it inherited, not from
		// the one core it is about to be pinned to.
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	if cpus != nil && !pin(d.cmd.Process.Pid, cpus) {
		d.stop()
		return nil, errNotPinned
	}
	return d, nil
}

var errNotPinned = fmt.Errorf("could not pin a daemon")

// ready sends query to the daemon until any answer comes back.
func (d *daemon) ready(query []byte) error {
	conn, err := net.Dial("udp4", d.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, _ = conn.Write(query) // refused until the daemon has bound: keep trying
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil && n >= 12 {
			return nil
		}
	}
	return fmt.Errorf("%s on %s never answered; its stderr:\n%s", d.name, d.addr, d.stderr.String())
}

// start brings up the workload's daemons, waits until each answers,
// and runs the fully validated warm-up pass. It is what setup_s times.
func (e *liveEnv) start(w liveWorkload, pkts []packet, shapes []shape) (*topology, error) {
	t := &topology{}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()

	// The daemon under test gets the last core to itself; the harness
	// and any upstream daemon keep the rest (they inherit the harness's
	// mask, set in main).
	var dutCPUs []int
	if e.pin && len(hostCPUs) >= 2 {
		dutCPUs = hostCPUs[len(hostCPUs)-1:]
		t.pinned = true
	}

	readyQ, err := dnswire.NewQuery(1, dnswire.MustParseName("ready-"+salt(e.seed)+"."+measure.TestDomain.String()), dnswire.TypeTXT).Pack()
	if err != nil {
		return nil, err
	}
	authArgs := func(site string) []string { return []string{"-combo", "2B", "-site", site} }
	switch {
	case w.resolver:
		var ups []string
		for i, site := range []string{"DUB", "FRA"} {
			d, err := e.spawn("authd "+site, fmt.Sprintf("127.0.0.%d", i+2), nil, authArgs(site)...)
			if err != nil {
				return nil, err
			}
			t.others = append(t.others, d)
			if err := d.ready(readyQ); err != nil {
				return nil, err
			}
			ups = append(ups, d.addr)
		}
		t.dut, err = e.spawn("resolvd", "127.0.0.1", dutCPUs,
			"-policy", "bindlike", "-seed", strconv.FormatInt(e.seed, 10),
			"-upstream", measure.TestDomain.String()+"="+strings.Join(ups, ","))
	case w.mixed:
		zoneFile := filepath.Join(e.tmpDir, "mixed.zone")
		if err := os.WriteFile(zoneFile, []byte(mixedZoneText(e.seed)), 0o644); err != nil {
			return nil, err
		}
		t.dut, err = e.spawn("authd mixed", "127.0.0.1", dutCPUs,
			"-zone", zoneFile, "-identity", mixedIdentity)
	default:
		t.dut, err = e.spawn("authd FRA", "127.0.0.1", dutCPUs, authArgs("FRA")...)
	}
	if err != nil {
		return nil, err
	}
	if err := t.dut.ready(readyQ); err != nil {
		return nil, err
	}
	// Threads the daemon started while coming up must be pinned too.
	if dutCPUs != nil && !pin(t.dut.cmd.Process.Pid, dutCPUs) {
		return nil, errNotPinned
	}

	t.gen, err = newLoadgen(t.dut.addr, pkts, checker(shapes))
	if err != nil {
		return nil, err
	}
	t.gen.fullEvery = 1
	warm := t.gen.closedLoop(warmupWindow, 0, warmupN)
	t.gen.fullEvery = fullCheckEvery
	if warm.failed > 0 || warm.answered != warmupN {
		return nil, fmt.Errorf("%s: warm-up pass: %v", w.name, warm)
	}
	ok = true
	return t, nil
}

// phaseStats is one timed phase with the clocks read around it.
type phaseStats struct {
	*phaseResult
	dutCPUNs  int64 // daemon on-CPU time across the phase
	selfCPUUs float64
	sortedLat []int64
}

// qps is the rate at which the phase's requests were answered.
func (p phaseStats) qps() float64 { return float64(p.answered) / p.wall.Seconds() }

// dutCPUUs is the daemon's on-CPU time per answered request.
func (p phaseStats) dutCPUUs() float64 {
	return float64(p.dutCPUNs) / 1e3 / float64(max(p.answered, 1))
}

// timed runs one phase and reads the clocks around it.
func (t *topology) timed(phase func() *phaseResult) phaseStats {
	pid := t.dut.cmd.Process.Pid
	cpu0, self0 := onCPUNs(pid), selfCPUUs()
	r := phase()
	return phaseStats{
		phaseResult: r,
		dutCPUNs:    onCPUNs(pid) - cpu0,
		selfCPUUs:   selfCPUUs() - self0,
		sortedLat:   sortedCopy(r.lat),
	}
}

// runLive measures one live workload end to end.
func runLive(w liveWorkload, e *liveEnv) (*result, error) {
	res := newResult(w.name, e.seed)
	pkts, shapes := w.packets(e.seed)

	// Heap allocations per query cannot be read from outside a daemon,
	// so they are counted on the same engines run in this process,
	// before anything else here allocates concurrently.
	allocs, bytesPer := engineAllocs(w, e.seed, pkts)

	// Two thirds of the time go to the open loop: its tail percentile
	// rests on the few dozen requests a GC cycle of the daemon delays,
	// and is the number that needs the samples; the closed loop's rate
	// settles within a second.
	openFor := time.Duration(e.seconds * 2 / 3 * float64(time.Second))
	closedFor := time.Duration(e.seconds*float64(time.Second)) - openFor

	// The saturation phase runs the harness on one P per harness core.
	// Its sender and receiver hand over through a channel, which inside
	// one P is a goroutine switch and across two Ps on one core a trip
	// through the kernel — dear enough that the harness, not the daemon,
	// would set the rate of the faster workloads. (The open loop needs
	// the opposite: its sender sleeps inside a system call and keeps its
	// P meanwhile, so the receiver must have one of its own or it runs a
	// pacing interval late.)
	saturate := func(t *topology) phaseStats {
		if e.pin && len(hostCPUs) >= 2 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(hostCPUs) - 1))
		}
		return t.timed(func() *phaseResult { return t.gen.closedLoop(closedWindow, closedFor, 0) })
	}

	// A traced run first takes the saturation rate of an untraced
	// topology, which is what its own rate is compared with.
	var untracedQPS float64
	if e.tr != nil {
		plain := *e
		plain.tr = nil
		t, err := plain.start(w, pkts, shapes)
		if err != nil {
			return nil, err
		}
		plainClosed := saturate(t)
		t.stop()
		untracedQPS = plainClosed.qps()
	}

	var setups []float64
	var t *topology
	for i := 0; i < e.setupReps; i++ {
		t.stop()
		begin := time.Now()
		var err error
		if t, err = e.start(w, pkts, shapes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer t.stop()
	res.Host.Pinned = t.pinned

	root := e.tr.start(0, "workload "+w.name)
	defer e.tr.end(root)
	var phase atomic.Int64 // the span sampled requests hang under; the receiver reads it
	if e.tr != nil {
		t.gen.onSpan = func(seq uint32, due, done int64) {
			e.tr.add(int(phase.Load()), fmt.Sprintf("request %d", seq), t.gen.epoch.Add(time.Duration(due)), t.gen.epoch.Add(time.Duration(done)))
		}
	}

	if w.prefill > 0 {
		fill := t.gen.closedLoop(closedWindow, 0, w.prefill)
		if fill.failed > 0 {
			return nil, fmt.Errorf("%s: cache fill: %v", w.name, fill)
		}
	}

	before := t.scrapeAll()
	var sampler *rxSampler
	if e.tr != nil {
		sampler = startRxSampler(t.dut.addr)
	}
	inPhase := func(name string, run func() phaseStats) phaseStats {
		id := e.tr.start(root, "phase "+name)
		phase.Store(int64(id))
		defer e.tr.end(id)
		return run()
	}
	open := inPhase("open-loop", func() phaseStats {
		return t.timed(func() *phaseResult { return t.gen.openLoop(w.rate, openFor) })
	})
	closed := inPhase("closed-loop", func() phaseStats { return saturate(t) })
	rxPeak, rxDrops := sampler.stop()
	after := t.scrapeAll()

	for _, ph := range []phaseStats{open, closed} {
		if ph.sent != ph.answered+ph.failed {
			return nil, fmt.Errorf("%s: generator lost count: %v", w.name, ph.phaseResult)
		}
	}
	res.Attempted = open.sent + closed.sent
	res.Failed = open.failed + closed.failed
	res.Correct = open.wrong+closed.wrong == 0 && open.answered > 0 && closed.answered > 0
	if !res.Correct {
		res.note("incorrect: open %v; closed %v", open.phaseResult, closed.phaseResult)
	}

	res.set("setup_s", stats.Median(setups))
	res.set("ops_per_s", closed.qps())
	res.set("cpu_us_per_op", open.dutCPUUs())
	res.set("p50_us", percentileUs(open.sortedLat, 0.50))
	res.set("p99_us", percentileUs(open.sortedLat, 0.99))
	res.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted))
	res.set("allocs_per_op", allocs)
	res.set("bytes_per_op", bytesPer)
	res.set("peak_rss_mb", peakRSSMiB(t.dut.cmd.Process.Pid))

	tailPct, tailUs := tail(open.sortedLat)
	lag := sortedCopy(open.lag)
	res.note("loopback only; pinned=%t; open loop %.0f qps for %v: achieved %.0f qps, %d samples, p%.3f = %.1f us; the generator ran %.1f us late at the median, %.1f us at p99",
		t.pinned, w.rate, openFor, open.qps(), len(open.sortedLat), tailPct, tailUs,
		percentileUs(lag, 0.5), percentileUs(lag, 0.99))
	ladder := ""
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		ladder += fmt.Sprintf(" p%g %.0f", 100*q, percentileUs(open.sortedLat, q))
	}
	res.note("open-loop latency in us:%s", ladder)
	res.note("closed loop, %d outstanding for %v: daemon CPU %.2f us/query (core %.0f%% busy), p50 %.1f us",
		closedWindow, closedFor, closed.dutCPUUs(), 100*float64(closed.dutCPUNs)/float64(closed.wall), percentileUs(closed.sortedLat, 0.5))
	if e.tr == nil {
		return res, nil
	}

	res.layer("trace.overhead_frac", untracedQPS/closed.qps()-1)
	res.layer("loadgen.lag_p99_us", percentileUs(lag, 0.99))
	res.layer("loadgen.cpu_us_per_op", (open.selfCPUUs+closed.selfCPUUs)/float64(res.Attempted))
	miss := open.failed
	for _, l := range open.lat {
		if l > sloNs {
			miss++
		}
	}
	res.layer("loadgen.slo_miss_frac", float64(miss)/float64(max(open.sent, 1)))
	res.layer("loadgen.tail_us", tailUs)
	res.layer("loadgen.tail_pct", tailPct)
	res.layer("sockets.rx_queue_peak", float64(rxPeak))
	res.layer("sockets.rx_drops", float64(rxDrops))
	delta := func(name string) float64 { return after[name] - before[name] }
	res.layer("authserver.queries", delta("authserver_queries_total"))
	res.layer("authserver.dropped", delta("authserver_dropped_total"))
	if cq := delta("resolver_client_queries_total"); cq > 0 {
		res.layer("resolver.cache_hit_ratio", delta("resolver_cache_hits_total")/cq)
		res.layer("resolver.upstream_per_client", delta("resolver_upstream_queries_total")/cq)
	}
	res.layer("resolver.timeouts", delta("resolver_timeouts_total"))
	res.layer("resolver.servfails", delta("resolver_servfail_total"))

	// The daemons have said what they can; the fold and the layer
	// calls need the cores to themselves.
	t.stop()
	id := e.tr.start(root, "twin fold")
	twin, err := twinFold(w, e.seed, pkts, shapes, 1500*time.Millisecond)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	res.fold(twin.fold)
	res.layer("runtime.gc_cycles", float64(twin.gcCycles))
	res.layer("runtime.gc_pause_ms", float64(twin.pauseNs)/1e6)
	res.layer("runtime.heap_peak_mb", float64(twin.heapSys)/(1<<20))
	layerCalls(res, e.tr, root, e.seed, w.mixed, pkts, nil)
	return res, nil
}

// scrapeAll sums the metrics endpoints of every daemon in the topology.
func (t *topology) scrapeAll() map[string]float64 {
	sum := t.dut.scrape()
	for _, d := range t.others {
		for k, v := range d.scrape() {
			sum[k] += v
		}
	}
	return sum
}

// rxSampler polls the daemon's UDP socket in /proc/net/udp for the
// deepest receive queue seen and the datagrams the kernel dropped.
type rxSampler struct {
	quit chan struct{}
	done chan struct{}
	peak int64
	d0   int64
	d1   int64
}

func startRxSampler(addr string) *rxSampler {
	_, portStr, _ := net.SplitHostPort(addr)
	port, _ := strconv.Atoi(portStr)
	s := &rxSampler{quit: make(chan struct{}), done: make(chan struct{})}
	if first, ok := readUDPSocket(port); ok {
		s.d0, s.d1 = first.drops, first.drops
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if u, ok := readUDPSocket(port); ok {
					s.peak = max(s.peak, u.rxQueue)
					s.d1 = u.drops
				}
			}
		}
	}()
	return s
}

// stop ends the sampler and returns the peak queue depth in bytes and
// the drops since it started. A nil sampler reports zeros.
func (s *rxSampler) stop() (peak, drops int64) {
	if s == nil {
		return 0, 0
	}
	close(s.quit)
	<-s.done
	return s.peak, s.d1 - s.d0
}
