package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture Go supports.
const clockTicksPerSecond = 100

// procSample is what the OS accounts to one process: the server child's
// efficiency numbers come from here, so client decode never pollutes them.
type procSample struct {
	UserSec, SysSec float64
	RSSPeakMB       float64 // VmHWM
	CtxSwitches     int64   // voluntary + involuntary, summed over threads
}

func (p procSample) cpuSec() float64 { return p.UserSec + p.SysSec }

// readProc samples /proc/<pid>.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("%s/stat: %d fields", dir, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("%s/stat: bad cpu fields %q %q", dir, f[11], f[12])
	}
	s.UserSec = float64(utime) / clockTicksPerSecond
	s.SysSec = float64(stime) / clockTicksPerSecond

	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.RSSPeakMB = float64(statusField(status, "VmHWM:")) / 1024

	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		s.CtxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

// readRSSMB reads only the resident set, for sampling through a window.
func readRSSMB(pid int) (float64, error) {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	return float64(statusField(status, "VmRSS:")) / 1024, nil
}

// statusField returns the first integer after key in a /proc status file.
func statusField(status []byte, key string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}
