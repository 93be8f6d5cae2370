package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// cpuClasses samples the runtime's CPU accounting; the GC share of the
// busy CPU time between two samples is the garbage collector's cost.
type cpuClasses struct{ gc, total, idle float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuClasses{gc: f(0), total: f(1), idle: f(2)}
}

// gcShare is the GC's share of the non-idle CPU time from a to b.
func gcShare(a, b cpuClasses) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if busy <= 0 {
		return 0
	}
	return (b.gc - a.gc) / busy
}

// interval is one span's extent in wall-clock time.
type interval struct{ start, end time.Time }

// profiler records a CPU profile of the traced phase into memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile, writes it to path and returns each Go
// package's share of the sampled CPU time, attributed to the innermost
// frame of every sample (flat time, inlined frames included).
func (p *profiler) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return packageShares(path)
}

// cpuShare sums the shares of a package and the packages below it.
func cpuShare(shares map[string]float64, pkg string) float64 {
	var s float64
	for p, v := range shares {
		if p == pkg || strings.HasPrefix(p, pkg+"/") {
			s += v
		}
	}
	return s
}

// packageShares lists every function's flat CPU time in the profile at
// path with the toolchain's `go tool pprof` and sums it by package.
func packageShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-unit=ns", "-symbolize=none", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byPkg := map[string]float64{}
	var total float64
	table := false
	for _, line := range strings.Split(string(out), "\n") {
		// After the header, each line is: flat flat% sum% cum cum% name.
		f := strings.Fields(line)
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: line %q: %w", line, err)
		}
		byPkg[packageOf(f[5])] += ns
		total += ns
	}
	if !table {
		return nil, fmt.Errorf("go tool pprof printed no table")
	}
	shares := map[string]float64{}
	for pkg, v := range byPkg {
		if total > 0 {
			shares[pkg] = v / total
		}
	}
	return shares, nil
}

// packageOf cuts a Go symbol such as
// "repro/internal/cache.(*Cache).find" down to its package path.
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// hostCPU is the process's CPU time and the host's stolen CPU time
// (from /proc/stat, in USER_HZ ticks of 10 ms) at one instant.
type hostCPU struct {
	at      time.Time
	process time.Duration
	steal   time.Duration
}

func readHostCPU() hostCPU {
	h := hostCPU{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.process = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		fields := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
		if len(fields) > 8 && fields[0] == "cpu" {
			if ticks, err := strconv.ParseInt(fields[8], 10, 64); err == nil {
				h.steal = time.Duration(ticks) * 10 * time.Millisecond
			}
		}
	}
	return h
}

// hostLine names the machine the timings hold for.
func hostLine() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d %s %s", runtime.NumCPU(), runtime.Version(), model)
}
