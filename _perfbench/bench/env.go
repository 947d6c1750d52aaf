package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment is recorded with every result: the figures are this
// machine's, measured in a shared sandbox, not a storage device's.
type environment struct {
	NProc          int
	GoMaxProcs     int // the generator's; brokerd runs with the default, which is NProc
	GoVersion      string
	FileSystem     string
	FsyncP50Micros float64
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs(generator)=%d gomaxprocs(brokerd)=%d go=%s fs=%s fsync_p50=%.1fus",
		e.NProc, e.GoMaxProcs, e.NProc, e.GoVersion, e.FileSystem, e.FsyncP50Micros)
}

func probeEnvironment(dir string) (environment, error) {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FileSystem: fileSystem(dir),
	}
	p50, err := fsyncProbe(dir, 64)
	if err != nil {
		return env, err
	}
	env.FsyncP50Micros = p50
	return env, nil
}

// fsyncProbe times n append+fsync pairs of a WAL-sized record in dir
// and returns the median in microseconds.
func fsyncProbe(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	rec := make([]byte, 256)
	times := make([]float64, n)
	for i := range times {
		t := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, fmt.Errorf("fsync probe write: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe sync: %w", err)
		}
		times[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	sort.Float64s(times)
	return times[n/2], nil
}

// fileSystem names the file system type of the longest mount point
// containing dir, from /proc/mounts.
func fileSystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, fields[2]
		}
	}
	return fs
}

// hostTicks reads the machine's CPU time in clock ticks from
// /proc/stat: the time the hypervisor ran other guests instead
// (steal) and the total. Steal slows every figure a run takes
// without the program doing more work.
func hostTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("read /proc/stat: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
