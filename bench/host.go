//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// hostRecord is the machine a document was measured on. Two documents
// are comparable only when their shapes are equal (see shape).
type hostRecord struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Pinned is true when every live workload ran with the daemon under
	// test alone on the last core and everything else on the others.
	Pinned bool `json:"pinned"`
	// Link is always "loopback": no traffic ever crosses a real link,
	// so wire latency and link rates are not measured.
	Link   string `json:"link"`
	Seed   int64  `json:"seed"`
	Commit string `json:"commit"`
}

func newHostRecord(seed int64) hostRecord {
	h := hostRecord{
		Cores:      len(hostCPUs),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Link:       "loopback",
		Seed:       seed,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// shape is what must match before two documents may be compared; seed
// and commit are allowed to differ.
func (h hostRecord) shape() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s kernel=%s pinned=%t",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Pinned)
}

// hostCPUs lists the CPUs this process may run on. It is read during
// package initialisation, before any pinning narrows the set.
var hostCPUs = func() []int {
	cpus := parseCPUList(procStatusField(os.Getpid(), "Cpus_allowed_list"))
	if len(cpus) == 0 {
		for i := 0; i < runtime.NumCPU(); i++ {
			cpus = append(cpus, i)
		}
	}
	return cpus
}()

// parseCPUList parses the kernel's "0-3,8" list format.
func parseCPUList(s string) []int {
	var out []int
	for _, part := range strings.Split(strings.TrimSpace(s), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	return out
}

// procStatusField returns one "Key:\tvalue" field of /proc/pid/status.
func procStatusField(pid int, key string) string {
	return statusField(fmt.Sprintf("/proc/%d/status", pid), key)
}

// statusField returns one field of a process's or a thread's status file.
func statusField(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// pin restricts every thread of pid to cpus and reports whether the
// kernel now shows exactly that set for all of them. A Go process has
// several threads by the time anyone can look, and a thread created
// between the listing and the call inherits its creator's mask, so the
// pass repeats until a listing comes back fully pinned.
func pin(pid int, cpus []int) bool {
	var mask [16]uint64
	for _, c := range cpus {
		if c >= len(mask)*64 {
			return false
		}
		mask[c/64] |= 1 << (c % 64)
	}
	want := fmt.Sprint(cpus)
	for pass := 0; pass < 5; pass++ {
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
		if err != nil || len(tasks) == 0 {
			return false
		}
		all := true
		for _, t := range tasks {
			tid, _ := strconv.Atoi(filepath.Base(t))
			if fmt.Sprint(parseCPUList(statusField(t+"/status", "Cpus_allowed_list"))) == want {
				continue
			}
			all = false
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
				uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
			if errno != 0 {
				return false
			}
		}
		if all {
			return true
		}
	}
	return false
}

// onCPUNs is the time pid's threads have spent running, from the
// scheduler's own nanosecond accounting (first field of schedstat).
func onCPUNs(pid int) int64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			sum += n
		}
	}
	return sum
}

// peakRSSMiB is pid's resident-set high-water mark.
func peakRSSMiB(pid int) float64 {
	f := strings.Fields(procStatusField(pid, "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// selfCPUUs is this process's user+system CPU time in microseconds.
func selfCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// udpSocket is one row of /proc/net/udp: the bytes waiting in a
// socket's receive queue and the datagrams the kernel has dropped
// because that queue was full.
type udpSocket struct {
	rxQueue, drops int64
}

// readUDPSocket finds the IPv4 UDP socket bound to port. ok is false
// when there is none (or /proc/net/udp is not readable here).
func readUDPSocket(port int) (s udpSocket, ok bool) {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return s, false
	}
	suffix := fmt.Sprintf(":%04X", port)
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 13 || !strings.HasSuffix(f[1], suffix) {
			continue
		}
		_, rx, _ := strings.Cut(f[4], ":")
		s.rxQueue, _ = strconv.ParseInt(rx, 16, 64)
		s.drops, _ = strconv.ParseInt(f[12], 10, 64)
		return s, true
	}
	return s, false
}
